package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"codsim/cod"
)

// The measuring time is split over three phases, each preceded by a
// warm-up of warmShare on the same channels. Phases shorter than ~6 s gave
// twice the spread in frames/s, which is why none is trimmed further.
const (
	fanoutShare   = 0.46
	pingpongShare = 0.27
	conflateShare = 0.155
	warmShare     = 0.0383

	fanoutSubs  = 3
	traceBatch  = 256 // frames per traced op span
	cbSetupReps = 5   // channel set-up is cheap and timer-phased: repeat it more

	conflateLead = 1024 // frames the conflate publisher may run ahead of the subscriber's mailbox
	rttSample    = 4    // pingpong times every 4th round trip
)

// streamState is the typed payload: 19 scalars, the size of the
// simulator's CraneState. Seq carries the continuity check.
type streamState struct {
	Seq                                  int64
	X, Y, Z, Heading, Pitch, Roll, Speed float64
	Swing, Luff, BoomLen, CableLen       float64
	HookX, HookY, HookZ, Mass, RPM       float64
	Held, EngineOn                       bool
}

func randomState(rng *rand.Rand) streamState {
	f := func() float64 { return rng.NormFloat64() * 100 }
	return streamState{
		X: f(), Y: f(), Z: f(), Heading: f(), Pitch: f(), Roll: f(), Speed: f(),
		Swing: f(), Luff: f(), BoomLen: f(), CableLen: f(),
		HookX: f(), HookY: f(), HookZ: f(), Mass: f(), RPM: f(),
		Held: rng.Intn(2) == 1, EngineOn: rng.Intn(2) == 1,
	}
}

// runCBStream exercises the backbone alone on an in-memory LAN, typed
// cod.Publish/Subscribe of a CraneState-sized struct — the smallest-frame
// case, where per-frame cost dominates. Three phases use the same mailbox
// three ways: fanout (1 publisher node pipelining to 3 Reliable subscriber
// nodes — the 60 Hz state fan-out shape at saturation), pingpong (two
// nodes echo one frame at depth 1 — latency) and conflate (1 publisher
// flat out, 1 LatestValue subscriber polling at 60 Hz like a display).
// Closed loop throughout.
func runCBStream(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	out := &outcome{layer: make(map[string]float64)}
	st := randomState(rand.New(rand.NewSource(cfg.seed)))
	totals := &cbTotals{}

	// --- fanout ---
	var fan *fanoutRig
	for rep := 0; rep < cbSetupReps; rep++ {
		if fan != nil {
			fan.fed.Close()
		}
		began := time.Now()
		var err error
		if fan, err = newFanoutRig(ctx, cod.NewMemLAN()); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(began).Seconds())
	}
	defer fan.fed.Close()
	if _, err := fan.run(ctx, out, st, cfg.share(warmShare), nil, 0); err != nil {
		return nil, fmt.Errorf("fanout warm-up: %w", err)
	}
	id := tr.begin(tr.rootID(), "fanout", "phase")
	before := takeUsage()
	frames, err := fan.run(ctx, out, st, cfg.share(fanoutShare), tr, id)
	fanUsage := takeUsage().since(before)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("fanout: %w", err)
	}
	totals.addFed(fan.fed)
	fan.fed.Close()
	out.ops += frames
	out.primary = float64(frames) / fanUsage.wall.Seconds()
	out.timed = fanUsage
	out.cpuOps = frames

	// --- pingpong ---
	pp, err := newPingPongRig(ctx, cod.NewMemLAN())
	if err != nil {
		return nil, err
	}
	defer pp.fed.Close()
	if _, _, err := pp.run(ctx, out, st, cfg.share(warmShare), nil, 0); err != nil {
		return nil, fmt.Errorf("pingpong warm-up: %w", err)
	}
	id = tr.begin(tr.rootID(), "pingpong", "phase")
	trips, rtts, err := pp.run(ctx, out, st, cfg.share(pingpongShare), tr, id)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("pingpong: %w", err)
	}
	totals.addFed(pp.fed)
	pp.fed.Close()
	out.ops += trips
	// The rate at the median round trip, not trips ÷ wall: a single stall
	// of the echo goroutine moves the mean by several percent and the
	// median not at all.
	if p50 := median(rtts); p50 > 0 {
		out.secondary = 1e6 / p50
	}

	// --- conflate ---
	cf, err := newConflateRig(ctx)
	if err != nil {
		return nil, err
	}
	defer cf.fed.Close()
	if _, _, err := cf.run(ctx, out, st, cfg.share(warmShare)); err != nil {
		return nil, fmt.Errorf("conflate warm-up: %w", err)
	}
	id = tr.begin(tr.rootID(), "conflate", "phase")
	conflatedBefore := cf.subNode.Stats().Conflations.Value()
	began := time.Now()
	published, polled, err := cf.run(ctx, out, st, cfg.share(conflateShare))
	cfWall := time.Since(began)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("conflate: %w", err)
	}
	conflated := cf.subNode.Stats().Conflations.Value() - conflatedBefore
	totals.addFed(cf.fed)
	cf.fed.Close()
	out.ops += polled

	if totals.dropped != 0 {
		out.fail("%v reflections dropped at a mailbox, want 0", totals.dropped)
	}
	if tr != nil {
		l := out.layer
		totals.fill(l)
		_, p99 := tail(rtts)
		l["cb.rtt_p50_us"] = median(rtts)
		l["cb.rtt_p99_us"] = p99
		l["cb.conflate_pub_per_s"] = float64(published) / cfWall.Seconds()
		l["cb.conflate_ratio"] = perOp(float64(conflated), published)
	}
	return out, nil
}

func (t *cbTotals) addFed(fed *cod.Federation) {
	for _, n := range fed.Nodes() {
		t.add(n.Stats())
	}
}

// waitCtx bounds one channel-establishment wait.
func waitCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, 10*time.Second)
}

// fanoutRig is 1 publisher node and fanoutSubs Reliable subscriber nodes.
type fanoutRig struct {
	fed  *cod.Federation
	pub  *cod.Pub[streamState]
	subs []*cod.Sub[streamState]
}

func newFanoutRig(ctx context.Context, lan cod.LAN) (*fanoutRig, error) {
	r := &fanoutRig{fed: cod.NewFederation(cod.WithLAN(lan))}
	err := func() error {
		pubNode, err := r.fed.Node("pub-pc")
		if err != nil {
			return err
		}
		if r.pub, err = cod.Publish[streamState](pubNode, "p", "Stream"); err != nil {
			return err
		}
		wctx, cancel := waitCtx(ctx)
		defer cancel()
		for i := 0; i < fanoutSubs; i++ {
			node, err := r.fed.Node(fmt.Sprintf("sub-pc-%d", i+1))
			if err != nil {
				return err
			}
			sub, err := cod.Subscribe[streamState](node, "s", "Stream", cod.Reliable(1024))
			if err != nil {
				return err
			}
			r.subs = append(r.subs, sub)
		}
		for _, sub := range r.subs {
			if err := sub.WaitMatched(wctx); err != nil {
				return err
			}
		}
		return r.pub.WaitChannels(wctx, fanoutSubs)
	}()
	if err != nil {
		r.fed.Close()
		return nil, fmt.Errorf("fanout set-up: %w", err)
	}
	return r, nil
}

// endOfStream encodes "n frames were sent" as a negative Seq: the frame
// that tells a consumer to stop and what it must have counted.
func endOfStream(n int64) int64 { return -1 - n }

// run streams frames for dur, then an end-of-stream frame, and returns the
// frames all subscribers consumed. Each consumer checks its sequence is
// gapless, duplicate-free and in order; a violation or a wait that outlives
// the phase deadline is a failed op.
func (r *fanoutRig) run(ctx context.Context, out *outcome, st streamState, dur time.Duration, tr *tracer, phase int) (int64, error) {
	// One deadline for every wait of the phase: a lost frame or a wedged
	// credit window ends the phase as a failure instead of hanging it.
	pctx, cancel := context.WithTimeout(ctx, dur+15*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	counts := make([]int64, len(r.subs))
	errs := make([]error, len(r.subs))
	for i, sub := range r.subs {
		wg.Add(1)
		go func(i int, sub *cod.Sub[streamState]) {
			defer wg.Done()
			counts[i], errs[i] = consumeStream(pctx, sub, tr, phase)
		}(i, sub)
	}
	// join waits for the consumers and folds their counts and failures in.
	join := func() (consumed int64) {
		wg.Wait()
		for i, n := range counts {
			consumed += n
			if errs[i] != nil {
				out.fail("fanout subscriber %d after %d frames: %v", i+1, n, errs[i])
			}
		}
		return consumed
	}

	deadline := time.Now().Add(dur)
	var sent int64
	var pubErr error
	for pubErr == nil && time.Now().Before(deadline) {
		batchStart, busy := tr.now(), time.Duration(0)
		for i := 0; i < traceBatch && pubErr == nil; i++ {
			st.Seq = sent
			if tr == nil {
				pubErr = r.pub.UpdateContext(pctx, float64(sent), st)
			} else {
				t0 := time.Now()
				pubErr = r.pub.UpdateContext(pctx, float64(sent), st)
				busy += time.Since(t0)
			}
			sent++
		}
		if tr != nil {
			op := tr.add(phase, "batch", "op", batchStart, time.Duration(tr.now()-batchStart), traceBatch)
			tr.add(op, "update", "cod", batchStart, busy, traceBatch)
		}
	}
	if pubErr != nil {
		sent--
		out.fail("fanout publisher after %d frames: %v", sent, pubErr)
	}
	st.Seq = endOfStream(sent)
	if err := r.pub.UpdateContext(pctx, float64(sent), st); err != nil {
		cancel() // consumers would wait out the deadline for a frame that never left
		return join(), fmt.Errorf("end of stream: %w", err)
	}
	return join(), nil
}

// consumeStream drains one Reliable subscription until end-of-stream,
// checking continuity, and returns the frames consumed.
func consumeStream(ctx context.Context, sub *cod.Sub[streamState], tr *tracer, phase int) (int64, error) {
	var n int64
	for {
		batchStart, busy := tr.now(), time.Duration(0)
		for i := 0; i < traceBatch; i++ {
			t0 := time.Time{}
			if tr != nil {
				t0 = time.Now()
			}
			r, err := sub.Next(ctx)
			if tr != nil {
				busy += time.Since(t0)
			}
			if err != nil {
				return n, err
			}
			if r.Value.Seq < 0 {
				if want := endOfStream(n); r.Value.Seq != want {
					return n, fmt.Errorf("stream ended at %d frames, publisher sent %d", n, -1-r.Value.Seq)
				}
				return n, nil
			}
			if r.Value.Seq != n {
				return n, fmt.Errorf("sequence gap: got frame %d, want %d", r.Value.Seq, n)
			}
			n++
		}
		tr.add(phase, "consume", "cod", batchStart, busy, traceBatch)
	}
}

// pingPongRig is two nodes echoing one frame at depth 1 on Reliable(64).
type pingPongRig struct {
	fed     *cod.Federation
	ping    *cod.Pub[streamState]
	pong    *cod.Sub[streamState]
	echoIn  *cod.Sub[streamState]
	echoOut *cod.Pub[streamState]
}

func newPingPongRig(ctx context.Context, lan cod.LAN) (*pingPongRig, error) {
	r := &pingPongRig{fed: cod.NewFederation(cod.WithLAN(lan))}
	err := func() error {
		a, err := r.fed.Node("a-pc")
		if err != nil {
			return err
		}
		b, err := r.fed.Node("b-pc")
		if err != nil {
			return err
		}
		if r.ping, err = cod.Publish[streamState](a, "a", "Ping"); err != nil {
			return err
		}
		if r.pong, err = cod.Subscribe[streamState](a, "a", "Pong", cod.Reliable(64)); err != nil {
			return err
		}
		if r.echoIn, err = cod.Subscribe[streamState](b, "b", "Ping", cod.Reliable(64)); err != nil {
			return err
		}
		if r.echoOut, err = cod.Publish[streamState](b, "b", "Pong"); err != nil {
			return err
		}
		wctx, cancel := waitCtx(ctx)
		defer cancel()
		if err := r.pong.WaitMatched(wctx); err != nil {
			return err
		}
		if err := r.echoIn.WaitMatched(wctx); err != nil {
			return err
		}
		if err := r.ping.WaitChannels(wctx, 1); err != nil {
			return err
		}
		return r.echoOut.WaitChannels(wctx, 1)
	}()
	if err != nil {
		r.fed.Close()
		return nil, fmt.Errorf("pingpong set-up: %w", err)
	}
	return r, nil
}

// run echoes frames for dur and returns the round trips completed and the
// sampled round-trip times in µs.
func (r *pingPongRig) run(ctx context.Context, out *outcome, st streamState, dur time.Duration, tr *tracer, phase int) (int64, []float64, error) {
	pctx, cancel := context.WithTimeout(ctx, dur+15*time.Second)
	defer cancel()

	echoDone := make(chan error, 1)
	go func() {
		for {
			in, err := r.echoIn.Next(pctx)
			if err != nil {
				echoDone <- err
				return
			}
			if err := r.echoOut.UpdateContext(pctx, in.Time, in.Value); err != nil {
				echoDone <- err
				return
			}
			if in.Value.Seq < 0 {
				echoDone <- nil
				return
			}
		}
	}()

	// Every rttSample-th round trip is timed: a few hundred thousand samples
	// place the median as well as a million would, in a quarter of the memory.
	rtts := make([]float64, 0, int(dur.Seconds()*150e3)/rttSample+traceBatch)
	trip := func(seq int64) error {
		st.Seq = seq
		if err := r.ping.UpdateContext(pctx, float64(seq), st); err != nil {
			return err
		}
		back, err := r.pong.Next(pctx)
		if err != nil {
			return err
		}
		if back.Value.Seq != seq {
			return fmt.Errorf("echo of frame %d came back as %d", seq, back.Value.Seq)
		}
		return nil
	}
	deadline := time.Now().Add(dur)
	var trips int64
	var err error
	for err == nil && time.Now().Before(deadline) {
		batchStart := tr.now()
		for i := 0; i < traceBatch && err == nil; i++ {
			if trips%rttSample == 0 {
				t0 := time.Now()
				err = trip(trips)
				rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
			} else {
				err = trip(trips)
			}
			trips++
		}
		if tr != nil {
			tr.add(phase, "batch", "op", batchStart, time.Duration(tr.now()-batchStart), traceBatch)
		}
	}
	if err != nil {
		trips--
		out.fail("pingpong after %d round trips: %v", trips, err)
		cancel()
		<-echoDone
		return trips, rtts, nil
	}
	if err := trip(endOfStream(trips)); err != nil {
		cancel()
		<-echoDone
		return trips, rtts, fmt.Errorf("end of stream: %w", err)
	}
	if err := <-echoDone; err != nil {
		out.fail("pingpong echo: %v", err)
	}
	return trips, rtts, nil
}

// conflateRig is 1 publisher node and 1 LatestValue subscriber node.
type conflateRig struct {
	fed     *cod.Federation
	pub     *cod.Pub[streamState]
	subNode *cod.Node
	in      *cod.Sub[streamState]
}

func newConflateRig(ctx context.Context) (*conflateRig, error) {
	r := &conflateRig{fed: cod.NewFederation(cod.WithLAN(cod.NewMemLAN()))}
	err := func() error {
		pubNode, err := r.fed.Node("pub-pc")
		if err != nil {
			return err
		}
		if r.subNode, err = r.fed.Node("display-pc"); err != nil {
			return err
		}
		if r.pub, err = cod.Publish[streamState](pubNode, "p", "State"); err != nil {
			return err
		}
		if r.in, err = cod.Subscribe[streamState](r.subNode, "d", "State", cod.LatestValue()); err != nil {
			return err
		}
		wctx, cancel := waitCtx(ctx)
		defer cancel()
		if err := r.in.WaitMatched(wctx); err != nil {
			return err
		}
		return r.pub.WaitChannels(wctx, 1)
	}()
	if err != nil {
		r.fed.Close()
		return nil, fmt.Errorf("conflate set-up: %w", err)
	}
	return r, nil
}

// run publishes flat out for dur while the subscriber polls its newest
// value at 60 Hz. Newest wins: every poll that sees a value must see a
// newer one than the poll before, and once the publisher stops the
// subscriber must converge on the last frame published.
func (r *conflateRig) run(ctx context.Context, out *outcome, st streamState, dur time.Duration) (published, polled int64, err error) {
	pctx, cancel := context.WithTimeout(ctx, dur+15*time.Second)
	defer cancel()

	stop := make(chan struct{})
	type pollResult struct {
		polls, newest int64
		err           error
	}
	done := make(chan pollResult, 1)
	go func() {
		res := pollResult{newest: -1}
		tick := time.NewTicker(time.Second / 60)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- res
				return
			case <-pctx.Done():
				res.err = pctx.Err()
				done <- res
				return
			case <-tick.C:
			}
			v, ok, err := r.in.Latest()
			if err != nil {
				res.err = err
				done <- res
				return
			}
			if !ok {
				continue
			}
			if v.Value.Seq <= res.newest {
				res.err = fmt.Errorf("poll saw frame %d after frame %d", v.Value.Seq, res.newest)
				done <- res
				return
			}
			res.polls, res.newest = res.polls+1, v.Value.Seq
		}
	}()

	// A LatestValue channel has no credit window, and the in-memory LAN's
	// pipe is unbounded where a socket's buffer would block the writer: a
	// publisher that outruns the subscriber's link reader would queue
	// frames without limit. Bound its lead over what has reached the
	// subscriber's mailbox, the way a socket buffer would.
	reached := &r.subNode.Stats().ReflectsDelivered
	base := reached.Value()
	deadline := time.Now().Add(dur)
	for err == nil && time.Now().Before(deadline) {
		for i := 0; i < traceBatch && err == nil; i++ {
			st.Seq = published
			err = r.pub.Update(float64(published), st)
			published++
		}
		for published-(reached.Value()-base) > conflateLead && pctx.Err() == nil {
			runtime.Gosched()
		}
	}
	close(stop)
	res := <-done
	if err != nil {
		published--
		out.fail("conflate publisher after %d frames: %v", published, err)
		return published, res.polls, nil
	}
	if res.err != nil {
		out.fail("conflate subscriber after %d polls: %v", res.polls, res.err)
		return published, res.polls, nil
	}
	// The last frame is still in flight when the publisher stops; wait for
	// the mailbox to converge on it.
	newest := res.newest
	for newest != published-1 {
		v, err := r.in.Next(pctx)
		if err != nil {
			out.fail("conflate: newest frame seen %d, last published %d: %v", newest, published-1, err)
			break
		}
		if v.Value.Seq <= newest {
			out.fail("conflate: frame %d delivered after frame %d", v.Value.Seq, newest)
			break
		}
		newest = v.Value.Seq
	}
	return published, res.polls, nil
}
