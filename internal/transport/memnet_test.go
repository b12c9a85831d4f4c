package transport

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

func attach(t *testing.T, l LAN, name string) Interface {
	t.Helper()
	ifc, err := l.Attach(name)
	if err != nil {
		t.Fatalf("Attach(%q): %v", name, err)
	}
	t.Cleanup(func() { _ = ifc.Close() })
	return ifc
}

func TestMemLANAttachDuplicate(t *testing.T) {
	l := NewMemLAN()
	attach(t, l, "a")
	if _, err := l.Attach("a"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate attach err = %v, want ErrDuplicate", err)
	}
}

func TestMemLANStream(t *testing.T) {
	l := NewMemLAN()
	a := attach(t, l, "a")
	b := attach(t, l, "b")

	done := make(chan error, 1)
	go func() {
		conn, err := b.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(conn, buf); err != nil {
			done <- err
			return
		}
		if string(buf) != "hello" {
			done <- errors.New("payload mismatch: " + string(buf))
			return
		}
		_, err = conn.Write([]byte("world"))
		done <- err
	}()

	conn, err := a.Dial(b.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if conn.LocalAddr() != "mem://a" || conn.RemoteAddr() != "mem://b" {
		t.Errorf("addrs = %q -> %q", conn.LocalAddr(), conn.RemoteAddr())
	}
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(buf) != "world" {
		t.Errorf("reply = %q", buf)
	}
	if err := <-done; err != nil {
		t.Fatalf("server side: %v", err)
	}
}

func TestMemLANStreamEOFOnClose(t *testing.T) {
	l := NewMemLAN()
	a := attach(t, l, "a")
	b := attach(t, l, "b")

	acceptCh := make(chan Conn, 1)
	go func() {
		c, err := b.Accept()
		if err == nil {
			acceptCh <- c
		}
	}()
	conn, err := a.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server := <-acceptCh

	if _, err := conn.Write([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()

	// Server drains pending data, then sees EOF.
	buf := make([]byte, 3)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := server.Read(buf); !errors.Is(err, io.EOF) {
		t.Errorf("read after close = %v, want io.EOF", err)
	}
	if _, err := conn.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("write after close = %v, want ErrClosedPipe", err)
	}
}

func TestMemLANDialUnknown(t *testing.T) {
	l := NewMemLAN()
	a := attach(t, l, "a")
	if _, err := a.Dial("mem://ghost"); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("err = %v, want ErrUnknownAddr", err)
	}
	if _, err := a.Dial("bogus-scheme"); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("err = %v, want ErrUnknownAddr", err)
	}
}

func TestMemLANBroadcast(t *testing.T) {
	l := NewMemLAN()
	a := attach(t, l, "a")
	b := attach(t, l, "b")
	c := attach(t, l, "c")

	if err := a.Broadcast([]byte("ping")); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}

	for _, ifc := range []Interface{b, c} {
		select {
		case dg := <-ifc.Recv():
			if dg.From != "a" || string(dg.Payload) != "ping" {
				t.Errorf("%s got %+v", ifc.Node(), dg)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s: no datagram", ifc.Node())
		}
	}
	// Sender must not hear itself.
	select {
	case dg := <-a.Recv():
		t.Errorf("sender received own broadcast: %+v", dg)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestMemLANBroadcastPayloadIsolated(t *testing.T) {
	l := NewMemLAN()
	a := attach(t, l, "a")
	b := attach(t, l, "b")

	payload := []byte("mutable")
	if err := a.Broadcast(payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X' // sender reuses its buffer
	dg := <-b.Recv()
	if string(dg.Payload) != "mutable" {
		t.Errorf("receiver saw sender mutation: %q", dg.Payload)
	}
}

// TestMemLANBroadcastCopiesOnce: a broadcast is copied once, however many
// receivers it reaches, and they all read that one copy.
func TestMemLANBroadcastCopiesOnce(t *testing.T) {
	l := NewMemLAN()
	a := attach(t, l, "a")
	b := attach(t, l, "b")
	c := attach(t, l, "c")
	payload := []byte("subscription")
	n := testing.AllocsPerRun(100, func() {
		if err := a.Broadcast(payload); err != nil {
			t.Fatal(err)
		}
		gotB, gotC := <-b.Recv(), <-c.Recv()
		if &gotB.Payload[0] != &gotC.Payload[0] || string(gotB.Payload) != "subscription" {
			t.Fatalf("receivers read %q and %q, not one copy", gotB.Payload, gotC.Payload)
		}
	})
	if n > 1 {
		t.Errorf("a broadcast to two receivers costs %v allocations, want 1", n)
	}
}

func TestMemLANBroadcastLoss(t *testing.T) {
	l := NewMemLAN(WithLoss(1.0), WithSeed(42))
	a := attach(t, l, "a")
	b := attach(t, l, "b")

	if err := a.Broadcast([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	select {
	case dg := <-b.Recv():
		t.Errorf("datagram survived 100%% loss: %+v", dg)
	case <-time.After(20 * time.Millisecond):
	}
	if l.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", l.Dropped())
	}
}

func TestMemLANBroadcastTooLarge(t *testing.T) {
	l := NewMemLAN()
	a := attach(t, l, "a")
	if err := a.Broadcast(make([]byte, MaxDatagram+1)); !errors.Is(err, ErrPayloadLarge) {
		t.Errorf("err = %v, want ErrPayloadLarge", err)
	}
}

func TestMemLANLatency(t *testing.T) {
	const lat = 30 * time.Millisecond
	l := NewMemLAN(WithLatency(lat))
	a := attach(t, l, "a")
	b := attach(t, l, "b")

	start := time.Now()
	if err := a.Broadcast([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
		if elapsed := time.Since(start); elapsed < lat {
			t.Errorf("datagram arrived after %v, want >= %v", elapsed, lat)
		}
	case <-time.After(time.Second):
		t.Fatal("no datagram")
	}

	// Stream latency too.
	accepted := make(chan Conn, 1)
	go func() {
		c, err := b.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := a.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	server := <-accepted
	defer server.Close()

	start = time.Now()
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < lat {
		t.Errorf("stream byte arrived after %v, want >= %v", elapsed, lat)
	}
}

func TestMemLANJitterPreservesOrder(t *testing.T) {
	l := NewMemLAN(WithLatency(time.Millisecond), WithJitter(5*time.Millisecond), WithSeed(7))
	a := attach(t, l, "a")
	b := attach(t, l, "b")

	accepted := make(chan Conn, 1)
	go func() {
		c, err := b.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := a.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	server := <-accepted
	defer server.Close()

	var want []byte
	for i := 0; i < 32; i++ {
		want = append(want, byte(i))
		if _, err := conn.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d out of order: got %d", i, got[i])
		}
	}
}

func TestMemLANClose(t *testing.T) {
	l := NewMemLAN()
	a := attach(t, l, "a")
	b := attach(t, l, "b")

	// Accept unblocks with ErrClosed.
	acceptErr := make(chan error, 1)
	go func() {
		_, err := b.Accept()
		acceptErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-acceptErr:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Accept after close = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept did not unblock")
	}

	// Recv channel closes.
	if _, open := <-b.Recv(); open {
		t.Error("Recv channel still open after Close")
	}
	// Dialing the closed node fails.
	if _, err := a.Dial("mem://b"); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("Dial closed node = %v, want ErrUnknownAddr", err)
	}
	// Broadcasting from the closed node fails.
	if err := b.Broadcast([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Broadcast after close = %v, want ErrClosed", err)
	}
	// Double close is fine.
	if err := b.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	// The name can be reused after close (node replacement).
	if _, err := l.Attach("b"); err != nil {
		t.Errorf("re-attach after close: %v", err)
	}
}

func TestMemLANConcurrentBroadcast(t *testing.T) {
	l := NewMemLAN()
	const nodes = 8
	ifcs := make([]Interface, nodes)
	for i := range ifcs {
		ifcs[i] = attach(t, l, string(rune('a'+i)))
	}
	var wg sync.WaitGroup
	for _, ifc := range ifcs {
		wg.Add(1)
		go func(ifc Interface) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				_ = ifc.Broadcast([]byte{byte(k)})
			}
		}(ifc)
	}
	// Concurrently drain.
	for _, ifc := range ifcs {
		wg.Add(1)
		go func(ifc Interface) {
			defer wg.Done()
			deadline := time.After(2 * time.Second)
			for n := 0; n < 50*(nodes-1); n++ {
				select {
				case <-ifc.Recv():
				case <-deadline:
					return // drops are legal; just stop draining
				}
			}
		}(ifc)
	}
	wg.Wait()
	if got := l.Delivered() + l.Dropped(); got != nodes*50*(nodes-1) {
		t.Errorf("delivered+dropped = %d, want %d", got, nodes*50*(nodes-1))
	}
}

func TestMemLANBandwidth(t *testing.T) {
	// 10 KiB at 100 KiB/s ≈ 100 ms serialization delay.
	l := NewMemLAN(WithBandwidth(100 * 1024))
	a := attach(t, l, "a")
	b := attach(t, l, "b")

	accepted := make(chan Conn, 1)
	go func() {
		c, err := b.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	conn, err := a.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	server := <-accepted
	defer server.Close()

	payload := make([]byte, 10*1024)
	start := time.Now()
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Errorf("10KiB over 100KiB/s link took %v, want >= ~100ms", elapsed)
	}
}
