// Distributed runs the quickstart exchange over real UDP and TCP sockets
// on the loopback device — the same code path a multi-machine deployment
// would use, with each "computer" of the paper's rack owning one UDP port
// of the segment. Compare examples/quickstart, which uses the in-memory
// LAN; the only difference is the transport option.
//
// For a true multi-process run, see cmd/codbatch: -serve workers and a
// -coordinator, each its own process, on one -lan segment.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"codsim/cod"
)

// CraneState mirrors the dynamics module's state vector as a typed class.
type CraneState struct {
	X, Y, Z   float64
	BoomLuff  float64
	BoomLen   float64
	CableLen  float64
	Stability float64
	EngineOn  bool
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A 16-slot segment on loopback: ports 39900..39915. Both nodes name
	// the same segment, exactly as two processes on two machines would.
	fed := cod.NewFederation(cod.WithUDP("127.0.0.1:39900"))
	defer fed.Close()

	dyn, err := fed.Node("dynamics-pc")
	if err != nil {
		return err
	}
	disp, err := fed.Node("display-pc")
	if err != nil {
		return err
	}

	pub, err := cod.Publish[CraneState](dyn, "dynamics", "CraneState")
	if err != nil {
		return err
	}
	// The explicit LatestValue policy declares the saturation contract:
	// a stalled display conflates to the newest crane state per channel.
	sub, err := cod.Subscribe[CraneState](disp, "visual", "CraneState", cod.WithQueue(64), cod.LatestValue())
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sub.WaitMatched(ctx); err != nil {
		return fmt.Errorf("no virtual channel over real sockets: %w", err)
	}
	fmt.Println("virtual channel up over UDP discovery + TCP stream")

	const n = 30
	start := time.Now()
	for i := 0; i < n; i++ {
		st := CraneState{
			X: float64(i), BoomLuff: 0.5, BoomLen: 12, CableLen: 4, Stability: 1,
		}
		if err := pub.Update(float64(i), st); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		r, err := sub.Next(ctx)
		if err != nil {
			return fmt.Errorf("reflection %d lost: %w", i, err)
		}
		if i == 0 || i == n-1 {
			fmt.Printf("  reflect t=%.0f position.X=%.0f\n", r.Time, r.Value.X)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("%d full CraneState updates in %v (%.0f msg/s) over loopback TCP\n",
		n, elapsed.Round(time.Microsecond), float64(n)/elapsed.Seconds())
	return nil
}
