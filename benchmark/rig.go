package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"codsim/cod"
	"codsim/internal/dist"
	"codsim/internal/obs"
	"codsim/internal/scenario"
	"codsim/internal/sim"
	"codsim/internal/transport"
)

// distRig is one dispatch federation built from the public pieces codbatch
// uses: a coordinator node and one node per worker on a shared LAN, default
// coordinator timers, headless batch runs. campaign and dist_sweep both
// dispatch through one; they differ in LAN, worker pool and job source.
type distRig struct {
	fed     *cod.Federation
	coord   *dist.Coordinator
	slots   int
	stopRun context.CancelFunc
	wg      sync.WaitGroup
	closers []func() error

	// Traced runs only: the phase-latency histogram the coordinator and
	// workers observe into, and each job's run interval as the runner
	// wrapper saw it.
	reg  *obs.Registry
	tr   *tracer
	mu   sync.Mutex
	runs map[int64][2]int64
}

// workerSpec names one worker and its slot count.
type workerSpec struct {
	name  string
	slots int
}

// newDistRig builds the federation and waits until every worker has
// heartbeated, so a sweep never starts before its pool is live.
func newDistRig(ctx context.Context, cfg runConfig, lan cod.LAN, workers []workerSpec, tr *tracer) (*distRig, error) {
	r := &distRig{fed: cod.NewFederation(cod.WithLAN(lan)), tr: tr}
	var spans *obs.Spans
	if tr != nil {
		r.reg = obs.NewRegistry()
		spans = obs.NewSpans(r.reg)
		r.runs = make(map[int64][2]int64)
	}
	runCtx, stop := context.WithCancel(ctx)
	r.stopRun = stop
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()

	var names []string
	for _, ws := range workers {
		node, err := r.fed.Node(ws.name + "-node")
		if err != nil {
			return nil, fmt.Errorf("dist rig: %w", err)
		}
		wcfg := dist.WorkerConfig{
			Name: ws.name, Slots: ws.slots,
			Batch: sim.BatchConfig{Headless: true},
			Spans: spans,
		}
		if cfg.quick {
			// WaitWorkers waits out a heartbeat period; the default 500 ms
			// would be most of a smoke run.
			wcfg.Heartbeat = 25 * time.Millisecond
		}
		if tr != nil {
			wcfg.Run = r.tracedRunner
		}
		w, err := dist.NewWorker(node, wcfg)
		if err != nil {
			return nil, fmt.Errorf("dist rig: %w", err)
		}
		r.closers = append(r.closers, w.Close)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			_ = w.Run(runCtx) // returns runCtx's error at shutdown
		}()
		names = append(names, ws.name)
		r.slots += ws.slots
	}
	cnode, err := r.fed.Node("coordinator-node")
	if err != nil {
		return nil, fmt.Errorf("dist rig: %w", err)
	}
	if r.coord, err = dist.NewCoordinator(cnode, dist.CoordinatorConfig{Spans: spans}); err != nil {
		return nil, fmt.Errorf("dist rig: %w", err)
	}
	r.closers = append(r.closers, r.coord.Close)
	wctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	if err := r.coord.WaitWorkers(wctx, names); err != nil {
		return nil, fmt.Errorf("dist rig: %w", err)
	}
	ok = true
	return r, nil
}

// tracedRunner is dist.DefaultRunner with its interval noted per job.
func (r *distRig) tracedRunner(ctx context.Context, job dist.Job, cfg sim.BatchConfig) dist.Record {
	start := r.tr.now()
	rec := dist.DefaultRunner(ctx, job, cfg)
	end := r.tr.now()
	r.mu.Lock()
	r.runs[job.ID] = [2]int64{start, end}
	r.mu.Unlock()
	return rec
}

// close stops the workers, waits for them, and closes the federation.
func (r *distRig) close() {
	r.stopRun()
	r.wg.Wait()
	for i := len(r.closers) - 1; i >= 0; i-- {
		_ = r.closers[i]()
	}
	_ = r.fed.Close()
}

// sweepResult is one RunStream pass with what it consumed.
type sweepResult struct {
	recs  []dist.Record
	usage section
}

// sweep streams src through the coordinator and times it.
func (r *distRig) sweep(ctx context.Context, src dist.JobSource) (sweepResult, error) {
	before := takeUsage()
	recs, err := r.coord.RunStream(ctx, src)
	return sweepResult{recs: recs, usage: takeUsage().since(before)}, err
}

// jobSpans writes one op span per record under phase: queue, dispatch and
// run laid end to end, ending where the runner wrapper saw the run end.
func (r *distRig) jobSpans(phase int, recs []dist.Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range recs {
		iv, ok := r.runs[rec.Job]
		if !ok {
			continue
		}
		queue := time.Duration(rec.QueueMS * 1e6)
		dispatch := time.Duration(rec.DispatchMS * 1e6)
		start := iv[0] - int64(queue) - int64(dispatch)
		op := r.tr.add(phase, "job", "dist", start, time.Duration(iv[1]-start), 1)
		r.tr.add(op, "queue", "dist", start, queue, 1)
		r.tr.add(op, "dispatch", "dist", start+int64(queue), dispatch, 1)
		r.tr.add(op, "run", "trace", iv[0], time.Duration(iv[1]-iv[0]), 1)
	}
	clear(r.runs)
}

// distLayer derives the dist layer metrics of one sweep from its records,
// the coordinator's dispatch sample and the phase-latency histogram.
func (r *distRig) distLayer(l map[string]float64, sw sweepResult) {
	var queue, dispatch, run []float64
	var busySec, attempts float64
	for _, rec := range sw.recs {
		queue = append(queue, rec.QueueMS)
		dispatch = append(dispatch, rec.DispatchMS)
		run = append(run, rec.WallSec*1e3)
		busySec += rec.WallSec
		attempts += float64(max(rec.Attempt, 1))
	}
	l["dist.queue_ms"] = median(queue)
	l["dist.dispatch_ms"] = median(dispatch)
	l["dist.run_ms"] = median(run)
	l["dist.ack_ms"] = r.phaseMeanMS(obs.PhaseAck)
	l["dist.slot_busy_ratio"] = busySec / (float64(r.slots) * sw.usage.wall.Seconds())
	l["dist.attempts_per_job"] = perOp(attempts, int64(len(sw.recs)))
	l["dist.redispatches"] = float64(r.coord.Sample().Redispatches)
}

// phaseMeanMS reads one phase's mean latency back out of the registry's
// text exposition — the seam obs offers; its histograms expose no sum.
func (r *distRig) phaseMeanMS(phase string) float64 {
	var buf bytes.Buffer
	if err := r.reg.WritePrometheus(&buf); err != nil {
		return 0
	}
	var sum, count float64
	label := fmt.Sprintf("{phase=%q}", phase)
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "codsim_job_phase_seconds_sum" + label:
			sum = v
		case "codsim_job_phase_seconds_count" + label:
			count = v
		}
	}
	if count == 0 {
		return 0
	}
	return sum / count * 1e3
}

// timedSource wraps a job source for the benchmark: it stops the stream at
// a deadline (cold, time-boxed) or a count (warm, replaying the cold
// phase's jobs), and when traced times every Next — the time dispatch
// waited on the source — and sizes every spec's JSON.
type timedSource struct {
	next     func(ctx context.Context) (dist.Job, bool, error)
	deadline time.Time // zero: no deadline
	limit    int       // 0: no count limit
	tr       *tracer
	phase    int

	emitted   int
	waited    time.Duration
	specBytes int64
}

func (s *timedSource) Next(ctx context.Context) (dist.Job, bool, error) {
	if s.limit > 0 && s.emitted >= s.limit {
		return dist.Job{}, false, nil
	}
	if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
		return dist.Job{}, false, nil
	}
	start, began := s.tr.now(), time.Now()
	j, ok, err := s.next(ctx)
	d := time.Since(began)
	s.waited += d
	s.tr.add(s.phase, "stream_wait", "gen", start, d, 1)
	if ok {
		s.emitted++
		if s.tr != nil {
			if data, merr := scenario.MarshalSpec(j.Spec); merr == nil {
				s.specBytes += int64(len(data))
			}
		}
	}
	return j, ok, err
}

// udpLoopback places a UDPLAN segment of size computers on free loopback
// ports: real UDP discovery and TCP channels on 127.0.0.1.
func udpLoopback(size int) (cod.LAN, error) {
	base, err := transport.FreeUDPSegment("127.0.0.1", size)
	if err != nil {
		return nil, fmt.Errorf("udp segment: %w", err)
	}
	lan, err := cod.NewUDPLAN("127.0.0.1", base, size)
	if err != nil {
		return nil, fmt.Errorf("udp segment: %w", err)
	}
	return lan, nil
}

// slotsPerCore is the worker pool the reference box was sized for: as many
// slots as cores, never more generator load than the machine has.
func slotsPerCore() int { return runtime.GOMAXPROCS(0) }
