// Command cranesim runs the complete mobile crane training simulator on an
// in-process COD cluster: eight virtual computers (three displays, the
// synchronization server, and the dashboard / motion / instructor /
// simulation PCs) communicating through the Communication Backbone, with
// the autopilot standing in for the trainee.
//
// Usage:
//
//	cranesim [-duration 60s] [-timescale 1] [-polygons 3235] [-displays 3]
//	         [-udp] [-quiet]
//
// With -udp the cluster runs over real UDP/TCP loopback sockets instead of
// the in-memory LAN. It exits non-zero when the exam fails or the
// synchronization server evicts a display.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"codsim/cod"
	"codsim/internal/audio"
	"codsim/internal/fom"
	"codsim/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cranesim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		duration  = flag.Duration("duration", 60*time.Second, "how long to run (wall time)")
		timescale = flag.Float64("timescale", 1, "simulation speed multiplier")
		polygons  = flag.Int("polygons", 3235, "scene polygon budget (paper: 3235)")
		displays  = flag.Int("displays", 3, "number of surround-view displays")
		width     = flag.Int("width", 640, "display framebuffer width")
		height    = flag.Int("height", 480, "display framebuffer height")
		useUDP    = flag.Bool("udp", false, "use real UDP/TCP loopback sockets")
		quiet     = flag.Bool("quiet", false, "suppress the live status window")
		wavPath   = flag.String("wav", "", "write the last 20 s of cab audio to this WAV file")
	)
	flag.Parse()

	cfg := sim.Config{
		Displays:  *displays,
		Polygons:  *polygons,
		Width:     *width,
		Height:    *height,
		TimeScale: *timescale,
		Autopilot: true,
		AutoStart: true,
	}
	if *wavPath != "" {
		cfg.CaptureAudioSec = 20
	}
	if *useUDP {
		lan, err := cod.NewUDPLAN("127.0.0.1", 39700, 16)
		if err != nil {
			return err
		}
		cfg.LAN = lan
	}

	cluster, err := sim.New(cfg)
	if err != nil {
		return err
	}
	if err := cluster.Start(); err != nil {
		return err
	}
	defer cluster.Stop()

	fmt.Printf("cranesim: %d displays + sync server + 4 module PCs on the COD (%d polygons)\n",
		*displays, *polygons)

	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	deadline := time.Now().Add(*duration)
	var s fom.ScenarioState
	for now := range ticker.C {
		if err := cluster.Err(); err != nil {
			return err
		}
		s = cluster.ScenarioState()
		if !*quiet {
			fmt.Print("\n", cluster.Monitor().StatusWindow(0))
			sum := cluster.Summary()
			fmt.Printf("| displays fps: ")
			for i, fps := range sum.DisplayFPS {
				if i > 0 {
					fmt.Print(" / ")
				}
				fmt.Printf("%.1f", fps)
			}
			fmt.Printf("   swaps: %d\n", sum.ServerSwaps)
		}
		if s.Phase == fom.PhaseComplete || s.Phase == fom.PhaseFailed {
			fmt.Printf("\nexam finished: %s — score %.1f in %.1f s (sim time)\n",
				s.Phase, s.Score, s.Elapsed)
			break
		}
		if now.After(deadline) {
			fmt.Printf("\ntime up: phase %s, score %.1f\n", s.Phase, s.Score)
			break
		}
	}

	sum := cluster.Summary()
	fmt.Printf("final: swaps=%d evicted=%d audioVoices=%d alarms=%d\n",
		sum.ServerSwaps, sum.Evicted, sum.AudioVoices, len(sum.Alarms))

	if *wavPath != "" {
		pcm := cluster.AudioPCM()
		f, err := os.Create(*wavPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := audio.WriteWAV(f, pcm); err != nil {
			return err
		}
		fmt.Printf("wrote %.1f s of cab audio to %s\n",
			float64(len(pcm))/audio.SampleRate, *wavPath)
	}
	if s.Phase == fom.PhaseFailed {
		return fmt.Errorf("exam failed: %s", s.Message)
	}
	if sum.Evicted > 0 {
		return fmt.Errorf("%d displays evicted from the frame barrier", sum.Evicted)
	}
	return nil
}
