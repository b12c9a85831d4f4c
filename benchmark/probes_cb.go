package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"codsim/cod"
	"codsim/internal/cb"
	"codsim/internal/displaysync"
	"codsim/internal/fom"
	"codsim/internal/lp"
	"codsim/internal/mathx"
	"codsim/internal/transport"
	"codsim/internal/wire"
)

// probeState is the CraneState every backbone probe carries.
var probeState = fom.CraneState{
	Position: mathx.V3(100, 0, 100), Heading: 0.3, Speed: 1.5,
	BoomLuff: mathx.Rad(45), BoomLen: 14, CableLen: 6,
	HookPos: mathx.V3(100, 6, 90), CargoPos: mathx.V3(100, 1, 90),
	CargoMass: 1800, EngineRPM: 1400, EngineOn: true, Stability: 1, CargoID: -1,
}

// probeFOM times the hand-written CraneState codec.
func probeFOM(_ context.Context, _ runConfig, l map[string]float64) error {
	var attrs wire.AttrSet
	l["fom.encode_ns"] = timeOp(func() { attrs = probeState.Encode() })
	var err error
	l["fom.decode_ns"] = timeOp(func() {
		if _, e := fom.DecodeCraneState(attrs); e != nil {
			err = e
		}
	})
	return err
}

// stateFrame is the UPDATE frame a CraneState rides in.
func stateFrame() wire.Frame {
	return wire.Frame{
		Kind: wire.KindUpdateAttrs, Channel: 7, Seq: 1, Time: 12.5,
		Node: "sim-pc", LP: "dynamics", Class: fom.ClassCraneState,
		Attrs: probeState.Encode(),
	}
}

// probeWire times the frame codec on the zero-alloc path.
func probeWire(_ context.Context, _ runConfig, l map[string]float64) error {
	frame := stateFrame()
	buf := make([]byte, 0, 1024)
	var err error
	l["wire.encode_ns"] = timeOp(func() {
		if buf, err = frame.AppendEncode(buf[:0]); err != nil {
			return
		}
	})
	if err != nil {
		return err
	}
	l["wire.frame_bytes"] = float64(len(buf))
	dec := wire.NewDecoder()
	var into wire.Frame
	l["wire.decode_ns"] = timeOp(func() {
		if e := dec.DecodeInto(buf, &into); e != nil {
			err = e
		}
	})
	return err
}

// leadLimit bounds how many frames a probe's writer may run ahead of its
// reader on the in-memory LAN, whose pipes never block a writer.
const leadLimit = 4096

// probeTransport times a raw in-memory connection carrying frame-sized
// writes, then re-runs cb_stream's fanout and pingpong loops on UDP
// loopback.
func probeTransport(ctx context.Context, cfg runConfig, l map[string]float64) error {
	lan := transport.NewMemLAN()
	a, err := lan.Attach("a")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := lan.Attach("b")
	if err != nil {
		return err
	}
	defer b.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := b.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	conn, err := a.Dial(b.Addr())
	if err != nil {
		return err
	}
	defer conn.Close()
	peer, ok := <-accepted
	if !ok {
		return errors.New("accept failed")
	}

	payload, err := stateFrame().Encode()
	if err != nil {
		return err
	}
	var read atomic.Int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 64<<10)
		for {
			n, err := peer.Read(buf)
			read.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	var written int64
	write := func() {
		n, e := conn.Write(payload)
		written += int64(n)
		if e != nil {
			err = e
		}
		for written-read.Load() > leadLimit*int64(len(payload)) {
			runtime.Gosched()
		}
	}
	l["transport.mem_write_ns"] = timeOp(write)
	frames := probeCount(cfg, 200000)
	start := time.Now()
	for i := 0; i < frames && err == nil; i++ {
		write()
	}
	for read.Load() < written && ctx.Err() == nil {
		runtime.Gosched()
	}
	l["transport.mem_frames_per_s"] = float64(frames) / time.Since(start).Seconds()
	_ = conn.Close()
	_ = peer.Close()
	<-drained
	if err != nil {
		return err
	}
	return probeUDP(ctx, cfg, l)
}

func probeUDP(ctx context.Context, cfg runConfig, l map[string]float64) error {
	st := randomState(rand.New(rand.NewSource(cfg.seed)))
	scratch := &outcome{}

	lan, err := udpLoopback(fanoutSubs + 1)
	if err != nil {
		return err
	}
	fan, err := newFanoutRig(ctx, lan)
	if err != nil {
		return err
	}
	start := time.Now()
	frames, err := fan.run(ctx, scratch, st, probeSpan(cfg, 1500*time.Millisecond), nil, 0)
	wall := time.Since(start)
	fan.fed.Close()
	if err != nil {
		return fmt.Errorf("udp fanout: %w", err)
	}
	l["transport.udp_frames_per_s"] = float64(frames) / wall.Seconds()

	if lan, err = udpLoopback(2); err != nil {
		return err
	}
	pp, err := newPingPongRig(ctx, lan)
	if err != nil {
		return err
	}
	start = time.Now()
	trips, _, err := pp.run(ctx, scratch, st, probeSpan(cfg, 1500*time.Millisecond), nil, 0)
	wall = time.Since(start)
	pp.fed.Close()
	if err != nil {
		return fmt.Errorf("udp pingpong: %w", err)
	}
	l["transport.udp_rtt_us"] = perOp(wall.Seconds()*1e6, trips)
	if scratch.failed > 0 {
		return fmt.Errorf("udp loopback: %s", scratch.errs[0])
	}
	return nil
}

// probeCB times the raw backbone with pre-encoded attributes: one UPDATE
// pushed and reflected on the same node and across two nodes of an
// in-memory LAN, the allocation cost per remote frame, the channel
// handshake, and large-payload throughput.
func probeCB(ctx context.Context, cfg runConfig, l map[string]float64) error {
	lan := transport.NewMemLAN()
	nodes := make(map[string]*cb.Backbone)
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	node := func(name string) (*cb.Backbone, error) {
		n, err := cb.New(lan, name, cb.Config{})
		if err == nil {
			nodes[name] = n
		}
		return n, err
	}
	wctx, cancel := waitCtx(ctx)
	defer cancel()
	attrs := probeState.Encode()

	// hop is one UPDATE pushed and its reflection taken.
	var hopErr error
	hop := func(pub *cb.Publication, sub *cb.Subscription) func() {
		t := 0.0
		return func() {
			t++
			if err := pub.UpdateContext(wctx, t, attrs); err != nil {
				hopErr = err
				return
			}
			if _, err := sub.NextContext(wctx); err != nil {
				hopErr = err
			}
		}
	}

	solo, err := node("solo")
	if err != nil {
		return err
	}
	lpub, err := solo.PublishObjectClass("p", "State")
	if err != nil {
		return err
	}
	lsub, err := solo.SubscribeObjectClass("s", "State", cb.WithReliable(1024))
	if err != nil {
		return err
	}
	l["cb.local_update_ns"] = timeOp(hop(lpub, lsub))

	pubNode, err := node("pub-pc")
	if err != nil {
		return err
	}
	subNode, err := node("sub-pc")
	if err != nil {
		return err
	}
	rpub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		return err
	}
	rsub, err := subNode.SubscribeObjectClass("s", "State", cb.WithReliable(1024))
	if err != nil {
		return err
	}
	if err := rsub.WaitMatchedContext(wctx); err != nil {
		return err
	}
	if err := rpub.WaitChannelsContext(wctx, 1); err != nil {
		return err
	}
	remote := hop(rpub, rsub)
	l["cb.remote_update_ns"] = timeOp(remote)
	var before, after runtime.MemStats
	frames := probeCount(cfg, 20000)
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		remote()
	}
	runtime.ReadMemStats(&after)
	l["cb.allocs_per_frame"] = float64(after.Mallocs-before.Mallocs) / float64(frames)
	l["cb.bytes_per_frame"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(frames)
	if hopErr != nil {
		return hopErr
	}

	// The initialization handshake: register a subscriber, broadcast
	// SUBSCRIPTION, receive ACKNOWLEDGE, build the virtual channel.
	if _, err := pubNode.PublishObjectClass("p", "Setup"); err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < 7; i++ {
		start := time.Now()
		s, err := subNode.SubscribeObjectClass(fmt.Sprintf("s%d", i), "Setup", cb.WithLatestValue())
		if err != nil {
			return err
		}
		if err := s.WaitMatchedContext(wctx); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds()*1e3)
		_ = s.Close()
	}
	l["cb.channel_setup_ms"] = median(setups)

	return probeBlob(ctx, cfg, pubNode, subNode, l)
}

// probeBlob streams 8 KiB payloads through a Reliable channel with a
// concurrently draining consumer.
func probeBlob(ctx context.Context, cfg runConfig, pubNode, subNode *cb.Backbone, l map[string]float64) error {
	const blobSize = 8 << 10
	pctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	pub, err := pubNode.PublishObjectClass("p", "Blob")
	if err != nil {
		return err
	}
	sub, err := subNode.SubscribeObjectClass("s", "Blob", cb.WithReliable(64))
	if err != nil {
		return err
	}
	if err := sub.WaitMatchedContext(pctx); err != nil {
		return err
	}
	if err := pub.WaitChannelsContext(pctx, 1); err != nil {
		return err
	}
	payload := make([]byte, blobSize)
	rand.New(rand.NewSource(cfg.seed)).Read(payload)
	// Attribute 1 is the payload, attribute 2 the sequence (-1 ends).
	frame := func(seq int64) wire.AttrSet {
		a := wire.NewAttrSet(2)
		a.PutBytes(1, payload)
		a.PutInt64(2, seq)
		return a
	}
	var (
		wg      sync.WaitGroup
		got     int64
		consErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			r, err := sub.NextContext(pctx)
			if err != nil {
				consErr = err
				return
			}
			seq, _ := r.Attrs.Int64(2)
			if seq < 0 {
				return
			}
			if p, _ := r.Attrs.Bytes(1); seq != got || len(p) != blobSize {
				consErr = fmt.Errorf("blob %d arrived as %d (%d bytes)", got, seq, len(p))
				return
			}
			got++
		}
	}()
	start := time.Now()
	deadline := start.Add(probeSpan(cfg, 800*time.Millisecond))
	var sent int64
	for err == nil && time.Now().Before(deadline) {
		err = pub.UpdateContext(pctx, float64(sent), frame(sent))
		sent++
	}
	if err == nil {
		err = pub.UpdateContext(pctx, float64(sent), frame(-1))
	}
	if err != nil {
		cancel()
	}
	wg.Wait()
	wall := time.Since(start)
	if err == nil {
		err = consErr
	}
	if err == nil && got != sent {
		err = fmt.Errorf("%d of %d blobs arrived", got, sent)
	}
	l["cb.blob_mb_per_s"] = float64(got) * blobSize / 1e6 / wall.Seconds()
	return err
}

// probeCod times the typed SDK against the raw backbone on one node: the
// same 19 attributes pushed and reflected through cod.Pub/Sub (encode,
// route, decode) and through cb with the attribute set encoded once.
func probeCod(ctx context.Context, cfg runConfig, l map[string]float64) error {
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()))
	defer fed.Close()
	node, err := fed.Node("solo")
	if err != nil {
		return err
	}
	wctx, cancel := waitCtx(ctx)
	defer cancel()
	st := randomState(rand.New(rand.NewSource(cfg.seed)))

	pub, err := cod.Publish[streamState](node, "p", "Typed")
	if err != nil {
		return err
	}
	sub, err := cod.Subscribe[streamState](node, "s", "Typed", cod.Reliable(1024))
	if err != nil {
		return err
	}
	var hopErr error
	typed := timeOp(func() {
		st.Seq++
		if err := pub.UpdateContext(wctx, float64(st.Seq), st); err != nil {
			hopErr = err
			return
		}
		if _, err := sub.Next(wctx); err != nil {
			hopErr = err
		}
	})

	// The attribute set cod builds for a streamState: IDs are positional.
	attrs := wire.NewAttrSet(19)
	attrs.PutInt64(1, st.Seq)
	for id := wire.AttrID(2); id <= 17; id++ {
		attrs.PutFloat64(id, st.X)
	}
	attrs.PutBool(18, st.Held)
	attrs.PutBool(19, st.EngineOn)
	rawPub, err := node.Backbone().PublishObjectClass("p", "Raw")
	if err != nil {
		return err
	}
	rawSub, err := node.Backbone().SubscribeObjectClass("s", "Raw", cb.WithReliable(1024))
	if err != nil {
		return err
	}
	t := 0.0
	raw := timeOp(func() {
		t++
		if err := rawPub.UpdateContext(wctx, t, attrs); err != nil {
			hopErr = err
			return
		}
		if _, err := rawSub.NextContext(wctx); err != nil {
			hopErr = err
		}
	})
	l["cod.update_ns"] = typed
	l["cod.codec_ns"] = typed - raw
	return hopErr
}

// probeBarrier times the swap-lock barrier alone: three displays run
// frames with a no-op render against a sync server.
func probeBarrier(_ context.Context, cfg runConfig, l map[string]float64) error {
	lan := transport.NewMemLAN()
	serverBB, err := cb.New(lan, "sync-server", cb.Config{})
	if err != nil {
		return err
	}
	defer serverBB.Close()
	names := []string{"d-1", "d-2", "d-3"}
	srv, err := displaysync.NewServer(serverBB, "sync", displaysync.ServerConfig{Expected: names})
	if err != nil {
		return err
	}
	srv.Start()
	defer srv.Stop()
	displays := make([]*displaysync.Display, len(names))
	for i, name := range names {
		bb, err := cb.New(lan, fmt.Sprintf("pc-%d", i+1), cb.Config{})
		if err != nil {
			return err
		}
		defer bb.Close()
		if displays[i], err = displaysync.NewDisplay(bb, name); err != nil {
			return err
		}
	}
	for _, d := range displays {
		if !d.WaitServer(10 * time.Second) {
			return errors.New("display never linked to the sync server")
		}
	}
	frames := probeCount(cfg, 2000)
	errs := make([]error, len(displays))
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range displays {
		wg.Add(1)
		go func(i int, d *displaysync.Display) {
			defer wg.Done()
			errs[i] = d.RunFrames(frames, 10*time.Second, func(uint32) {})
		}(i, d)
	}
	wg.Wait()
	l["displaysync.barrier_rtt_us"] = time.Since(start).Seconds() * 1e6 / float64(frames)
	return errors.Join(errs...)
}

// probeLP runs a stand-alone paced runner with a no-op tick at the
// federation's demand (60 Hz x TimeScale 4) and reports how well it held
// the pace and how far tick intervals strayed from the period.
func probeLP(_ context.Context, cfg runConfig, l map[string]float64) error {
	const hz, scale = 60.0, 4.0
	ticks := probeCount(cfg, 360)
	stamps := make([]time.Time, 0, ticks)
	r, err := lp.NewRunner("probe", hz, func(float64, float64) error {
		stamps = append(stamps, time.Now())
		return nil
	}, lp.Realtime(), lp.TimeScale(scale), lp.MaxTicks(uint64(ticks)))
	if err != nil {
		return err
	}
	if err := r.Start(); err != nil {
		return err
	}
	if err := r.Wait(); err != nil {
		return err
	}
	if len(stamps) < 2 {
		return nil
	}
	period := 1 / (hz * scale)
	wall := stamps[len(stamps)-1].Sub(stamps[0]).Seconds()
	l["lp.pace_ratio"] = float64(len(stamps)-1) * period / wall
	jitter := make([]float64, 0, len(stamps)-1)
	for i := 1; i < len(stamps); i++ {
		jitter = append(jitter, math.Abs(stamps[i].Sub(stamps[i-1]).Seconds()-period)*1e6)
	}
	l["lp.tick_jitter_p99_us"] = quantileSorted(sorted(jitter), 0.99)
	return nil
}
