#!/bin/sh
# check.sh is the one list of gates: formatting, vet, the codvet analyzer
# suite, the full test suite and the smokes. CI (.github/workflows/ci.yml)
# runs this script as its single gate step. Run it from anywhere; records
# land in the git-ignored .check_out/ (CI uploads them as artifacts).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== codvet (project invariants: determinism, policydecl, layering, errwrap, nopool) =="
go run ./cmd/codvet ./...

echo "== orphan packages (every internal package is reached from a command, an example, the benchmark or the SDK) =="
# A package only its own tests import is code nothing runs: wire it in or
# delete it.
reached=$(go list -deps ./cmd/... ./examples/... ./benchmark ./cod)
orphans=$(go list ./internal/... | grep -vxF "$reached" || true)
if [ -n "$orphans" ]; then
    echo "imported by no command, example, benchmark or SDK file:" >&2
    echo "$orphans" >&2
    exit 1
fi

echo "== runnable surfaces (every main package under cmd/ and examples/ is built and run below) =="
# A command or example stays only if this script runs it to a checked
# result. The examples loop below runs every main package under examples/.
# A command counts as run when a line here does `go run ./cmd/NAME ...`,
# or builds "$out/NAME" from ./cmd/NAME and invokes it with a flag.
examples=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./examples/...)
unrun=
for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/...); do
    name=${pkg##*/}
    grep -qF "go run ./cmd/$name " scripts/check.sh && continue
    grep -qF "go build -o \"\$out/$name\" ./cmd/$name" scripts/check.sh &&
        grep -qF "\"\$out/$name\" -" scripts/check.sh && continue
    unrun="$unrun ${pkg#*/}"
done
if [ -n "$unrun" ]; then
    echo "built and run by no step of check.sh; run it to a checked result or delete it:$unrun" >&2
    exit 1
fi

echo "== test sleeps (time.Sleep lines in *_test.go: at most 8) =="
# A test paced by time.Sleep passes or fails with the host's load. Each
# one left moves to channel choreography or the manual clock
# (internal/clock); lower the ceiling as they go, never raise it.
sleeps=$(git grep -c 'time\.Sleep' -- '*_test.go' | awk -F: '{n += $NF} END {print n + 0}')
if [ "$sleeps" -gt 8 ]; then
    echo "$sleeps time.Sleep lines in tests, over the ceiling of 8:" >&2
    git grep -n 'time\.Sleep' -- '*_test.go' >&2
    exit 1
fi

# staticcheck and govulncheck are external tools; CI installs them pinned
# and puts them on PATH (see ci.yml). Locally they gate when present and
# are skipped offline.
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck =="
    staticcheck ./...
else
    echo "== staticcheck: not installed, skipping (CI runs it pinned) =="
fi
if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck =="
    govulncheck ./...
else
    echo "== govulncheck: not installed, skipping (CI runs it pinned) =="
fi

echo "== kernel exactness, fast fail (trajectory fingerprint, parked carrier, trig shortcuts and pose memo, collision pose caches, certification stream; -race) =="
# The step kernel may only change in ways that leave every trajectory bit
# for bit where it was; these name the culprit in seconds, before the full
# suite spends minutes. The fingerprint hashes trace.Flight.Tick itself —
# the tick Runner.RunSkill, codbatch and the oracle fly — not a copy of it,
# and the same package's TestFlightTickAllocatesNothing holds that tick to
# 0 allocations inside plain `go test`. The tandem federation runs three
# times because the race it once had (a latched unit read outside World.mu)
# fired about one run in four.
go test -race -count=1 -run 'TestTrajectoryFingerprint' ./internal/trace
# A parked carrier publishes the subnormal pitch and roll it always did and
# computes with neither. The trigonometry that skips tiny angles and the
# modulus WrapAngle skips under 2π are the stdlib's bit for bit, and the
# pose memo answers what a fresh model would.
go test -race -count=1 -run 'TestParkedCarrierComputesLevel|TestPoseMemoMatchesRecompute|TestStateToSetsEveryField' ./internal/dynamics
go test -race -count=1 -run 'TestSincosMatchesStdlib|TestWrapAngleMatchesMod|TestQuatEulerIsAxisAngleComposition' ./internal/mathx
go test -race -count=1 -run 'TestPoseCachesMatchRecompute|TestCheckPairMatchesBruteForceRandom|TestDescentStatsPinned' ./internal/collision
go test -race -count=3 -run 'TestClusterTandemCompletes' ./internal/sim
# The certification pipeline is held to the serial stream's behaviour under
# any lane count and any completion order; its tests are choreographed over
# channels, so twenty rounds under the race detector take about twenty
# seconds.
go test -race -count=20 -run 'TestStream' ./internal/scenario/gen
# The rasterizer's coverage is integer and exact by construction: the span
# kernel equals a brute-force walk over the same edge functions bit for bit
# (colour, depth, every ledger field), meshes are watertight, coverage moves
# with the triangle, the arithmetic stays inside its bit budget at the guard
# band's corners, the clip does not move what is drawn, and 108 frames hash
# to the committed golden (v2) on every GOARCH. A frame is drawn from a bin
# of set-up triangles in cache-sized row bands, each cleared and scanned in
# submission order against one band's depth rows: the same frames in bands
# of 1, 2, 7, 13 and 480 rows are one picture, the fuzz seeds put band
# edges through vertices, horizontal edges and one-row triangles, and a
# frame after the first allocates nothing.
go test -count=1 -run 'TestFrameFingerprint|TestRasterMatchesReference|TestVisitedCount|TestSharedEdgeWatertight|TestFanAndStripWatertight|TestTopLeftRule|TestCoverageShiftsWithTriangle|TestBitBudget|TestClipKeepsCoverage|TestBandHeightDoesNotChangeTheFrame|FuzzRasterTriangle|TestRenderAllocatesNothing' ./internal/render

echo "== joins, render-ahead, the manual clock, link storage and live scrapes (cb, dist, sim, displaysync, trace, obs; -race -count=20) =="
# The initialization protocol and the dispatch layer above it must build
# their channels, ready their pool, start a sweep and take in a late worker
# on a manual clock (internal/clock) that nobody advances: no period comes
# round, so only the first SUBSCRIPTION, the PUBLICATION solicit, the kick
# after a teardown and the publications' channel-set edge can make
# progress. The same tests pin the discovery datagrams of the 8-computer
# boot and the 3-node dist rig, and hold the repair periods to converging
# under 70 % datagram loss. None of them sleeps, so a hang is a bug, not
# slowness.
go test -race -count=20 -run 'TestJoin' ./internal/cb ./internal/dist ./internal/sim
go test -race -count=20 -run 'TestPubNotifyC' ./cod
# Render-ahead under the strict swap-lock (displaysync's package doc),
# choreographed over channels like the joins: no sleeps, a hang is a bug.
go test -race -count=20 -run 'TestRenderAhead' ./internal/displaysync ./internal/sim
# Link reaping, eviction, re-dispatch and the barrier's timeouts at their
# default periods on a manual clock the test advances, and the clock
# itself; then the hand-off's concurrent lanes (trace's package doc).
go test -race -count=20 -run 'TestManual|TestRemotePublisherStartsLate|TestPublisherNodeDeathRecovery|TestSilentPendingLinkReaped|TestLinkLivenessUnderInjectedClock|TestRedispatchOnWorkerDeath|TestCoordinatorGivesUpAfterMaxAttempts|TestStallEviction|TestIdleRackIsNotStalled|TestWaitSwapTimeout|TestDisplayNodeDeath' \
	./internal/clock ./internal/cb ./internal/dist ./internal/displaysync ./internal/sim
go test -race -count=20 -run 'TestHandOffConcurrent|TestHandOffNote' ./internal/trace
# A warm campaign answered at its coordinator from its verdict-cache rows:
# a worker on its own backbone flies the audited job alone, an edited
# audited row fails its job and -strict says why, an edited unaudited row
# is believed (trace's package doc).
go test -race -count=20 -run 'TestHandOffAuditFlies|TestHandOffStaleRow' ./internal/dist ./cmd/codbatch
# The telemetry plane: a sweep whose every run scrapes /metrics and
# /debug/tablez, and a series that leaves its source leaves the next scrape
# (internal/obs's package doc). No sleeps; a hang is a bug.
go test -race -count=20 -run 'TestObsLiveSweepScrape' ./internal/dist
# Push dispatch counted exactly: one grant per job on a clock nobody
# advances, and no worker running more jobs than its slots while every
# slot is kept busy (internal/dist's package doc, "Protocol").
go test -race -count=20 -run 'TestSweepNeverWaitsForReannounce|TestAnnouncesStayNearOnePerJob|TestWorkerNeverRunsMoreThanItsSlots' ./internal/dist
go test -race -count=20 -run 'TestScrapeDropsDepartedSeries' ./internal/obs
# The ownership rule on a link (internal/wire's package doc): storage a
# consumer releases goes to the link's free list and is never under a
# reflection still held. The per-frame allocation counts hold under the
# race detector too, because a free list keeps everything it is given.
go test -race -count=20 -run 'TestPoolNoAlias|TestRecycledStorageNeverShared|TestConflatedStorageGoesBack|TestConsumerThatNeverReleases|TestPoolAttrSetReuse' ./internal/cb

echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race ./...

echo "== bench smoke (1 iteration) =="
go test -bench . -benchtime 1x -run '^$' ./...

echo "== slow-subscriber smoke (MemLAN, 2 s stall: conflation + backpressure) =="
go test -run 'TestSlowSubscriberMemLANSmoke|TestReliableBackpressureStallsAndDrains|TestLatestValueStalledSubscriberConflates' -race -count=1 ./internal/cb

echo "== dist smoke (coordinator + workers, MemLAN) =="
go test -run 'TestCoordinatorWorkersMemLAN|TestRedispatchOnWorkerDeath|TestMemLANTandemSweep' -count=1 ./internal/dist

out=.check_out
rm -rf "$out"
mkdir "$out"
w1=; w2=
cleanup() {
    # || true: under set -e a failed kill (process already gone) must not
    # abort the trap before the second kill.
    [ -z "$w1" ] || kill "$w1" 2>/dev/null || true
    [ -z "$w2" ] || kill "$w2" 2>/dev/null || true
}
trap cleanup EXIT

echo "== bench regression (allocs/op vs BENCH_baseline.json; CBRouting gates) =="
# 10x matches the baseline's recording conditions: at 1x the one-time
# channel-setup allocations drown the per-op signal.
go test -bench 'BenchmarkCB|BenchmarkChannelSetup' -benchtime 10x -run '^$' . >"$out/bench.txt"
go test -bench . -benchtime 10x -run '^$' ./internal/transport >>"$out/bench.txt"
# ObsCounter carries a 0-allocs/op ceiling: metric points must stay cheap
# enough to sit on delivery hot paths. ObsSampler, a /metrics scrape's
# source write, carries one too. 1000x for a steady-state reading.
go test -bench . -benchtime 1000x -run '^$' ./internal/obs >>"$out/bench.txt"
# The gated CBRouting ceilings need steady-state numbers: at 10x the
# channel-setup amortization still flickers allocs/op by ±3. benchdiff
# keeps the last line per benchmark, so this run overrides the 10x one.
# 5000x takes the reliable variant past its 1024-frame window several
# times, so a publisher that loses track of its credits fails here.
# BenchmarkCodRemoteUpdate is the typed path on the same channel and
# BenchmarkCodec its codec alone (an all-scalar class at ceiling 0); the
# wire benches are the frame codec in the forms the link runs (AppendEncode
# into a reused buffer, DecodeInto a reused frame): ceiling 0, both.
go test -bench 'BenchmarkCBRouting|BenchmarkCodRemoteUpdate' -benchtime 5000x -run '^$' . >>"$out/bench.txt"
go test -bench '^BenchmarkCodec$' -benchtime 10000x -run '^$' ./cod >>"$out/bench.txt"
go test -bench 'BenchmarkFrame' -benchtime 500x -run '^$' ./internal/wire >>"$out/bench.txt"
# Sustained throughput at 10000x: the frames/sec/core headline plus gated
# allocs/bytes ceilings on the pipelined publish→consume path. The
# publisher runs up to a credit window ahead, so the link's byte ring
# grows to hold it once (~1 MB of doublings); 10000x puts that under
# 100 B/op.
go test -bench 'BenchmarkCBThroughput' -benchtime 10000x -run '^$' . >>"$out/bench.txt"
# The certification hot loop is gated at 0 allocs per 60 Hz step: one op
# is one trace.Flight.Tick, the tick Runner.RunSkill flies (rig rebuilds
# between flights are untimed); one full oracle dry-run stays under its
# setup ceiling at 20x.
go test -bench 'BenchmarkHeadlessRun' -benchtime 20000x -run '^$' . >>"$out/bench.txt"
go test -bench 'BenchmarkOracleCertify' -benchtime 20x -run '^$' . >>"$out/bench.txt"
# The same gate on what a batch worker pays: whole library flights through
# one Runner, one op per 60 Hz tick (200000x is three passes over the
# library, so rig builds amortize under one allocation per tick), and the
# collision judge alone with its proxies moved every op.
go test -bench 'BenchmarkLibraryFlight' -benchtime 200000x -run '^$' . >>"$out/bench.txt"
go test -bench 'BenchmarkJudgeCollisions' -benchtime 20000x -run '^$' . >>"$out/bench.txt"
# The dynamics model alone, moving, settling and parked, at HeadlessRun's
# steady-state count: the settling and parked steps are what a stalled
# dry-run repeats for a whole stall window. The settling step is the one
# time gate, at most 0.75 of a moving step in the same run (minimum of five).
# Five -count 1 passes, not one -count 5: -count runs all samples of one
# benchmark before the next starts, so a load spell over one block of five
# would bias the ratio; pass by pass the samples sit side by side.
for _ in 1 2 3 4 5; do
    go test -bench 'BenchmarkDynamicsStep|BenchmarkParkedStep|BenchmarkSettlingStep' -benchtime 20000x -count 1 -run '^$' ./internal/dynamics >>"$out/bench.txt"
done
# One rendered frame must not allocate, near-clipped or not (100x amortizes
# the first frame's triangle bin and clip scratch under one allocation;
# TestRenderAllocatesNothing holds the same inside plain `go test`).
go test -bench 'BenchmarkRender' -benchtime 100x -run '^$' ./internal/render >>"$out/bench.txt"
go test -bench 'BenchmarkSurroundViewFreeRun/polys-3235' -benchtime 100x -run '^$' . >>"$out/bench.txt"
# The same frame behind the swap-lock barrier does allocate: three READY
# marks and one SWAP mark a frame, 10 allocs; the ceiling is 12.
go test -bench 'BenchmarkSurroundViewSynced/polys-3235' -benchtime 100x -run '^$' . >>"$out/bench.txt"
# The dispatch layer alone, one op per job (a grant, a result and an ack):
# a grant storm (grants sent again and again) shows as allocs per job far
# over the ceiling.
go test -bench 'BenchmarkDistDispatch' -benchtime 5000x -run '^$' ./internal/dist >>"$out/bench.txt"
# A dispatch federation's bring-up, one op per federation + worker +
# coordinator + WaitWorkers + first record with default timers: allocs are
# gated, and an op that takes half a second instead of a millisecond means
# a join is waiting for a period again.
go test -bench 'BenchmarkDistReady' -benchtime 20x -run '^$' ./internal/dist >>"$out/bench.txt"
# The federation's boot, gated on allocs, bytes and time as a ratio to one
# rendered frame: what it catches is a boot that rebuilds its constant
# assets again (the sound bank alone is 1.4 MB and 15 ms a boot).
go test -bench 'BenchmarkFullSimulatorBoot' -benchtime 20x -count 5 -run '^$' . >>"$out/bench.txt"
# A spec's canonical JSON, the verdict-cache and hand-off key every
# campaign job pays for twice: one buffer an op, gated on allocs and bytes
# (a return to encoding/json's reflect-and-indent pass is 23 allocs).
go test -bench 'BenchmarkMarshalSpec' -benchtime 5000x -run '^$' ./internal/scenario >>"$out/bench.txt"
go run ./cmd/benchdiff BENCH_baseline.json "$out/bench.txt"

echo "== examples and cranesim (each runs to its own checked exit; 60 s cap) =="
for pkg in $examples; do
    ex=${pkg##*/}
    go build -o "$out/example-$ex" "./examples/$ex"
    timeout 60 "$out/example-$ex" >"$out/example-$ex.txt" 2>&1 || {
        echo "example $ex failed:" >&2
        tail -n 20 "$out/example-$ex.txt" >&2
        exit 1
    }
done
# The whole federation flies the exam; cranesim exits non-zero on a failed
# exam or an evicted display, and it must finish inside its 40 s.
go build -o "$out/cranesim" ./cmd/cranesim
timeout 60 "$out/cranesim" -timescale 10 -duration 40s -quiet -width 320 -height 240 >"$out/cranesim.txt" 2>&1 &&
    grep -q 'exam finished: complete' "$out/cranesim.txt" || {
    echo "cranesim did not complete the exam:" >&2
    cat "$out/cranesim.txt" >&2
    exit 1
}
tail -n 2 "$out/cranesim.txt"

echo "== batch smoke (headless sweep incl. multi-crane, JSONL report) =="
go build -o "$out/codbatch" ./cmd/codbatch
"$out/codbatch" -headless -strict -repeat 3 -out "$out/results.jsonl" >"$out/report.txt"
tail -n 3 "$out/report.txt"

echo "== tandem-lift smoke (two cranes, headless + skill spread) =="
"$out/codbatch" -headless -strict -scenarios tandem-beam,twin-yard >"$out/tandem.txt"
"$out/codbatch" -headless -strict -skill novice -scenarios tandem-beam,twin-yard >>"$out/tandem.txt"
tail -n 2 "$out/tandem.txt"

echo "== campaign smoke (100 generated scenarios, oracle-certified, strict, verdict cache) =="
"$out/codbatch" -campaign 7:100 -headless -strict -campaign-cache "$out/verdicts.jsonl" >"$out/campaign.txt"
tail -n 3 "$out/campaign.txt"
# Cold run: every certified job takes its own dry-run's result, none flies twice.
grep -q '^100 of 100 jobs answered by their certification, 0 flown to audit their cache row' "$out/campaign.txt" || {
    echo "campaign smoke: cold run flew certified jobs again" >&2
    grep 'jobs answered' "$out/campaign.txt" >&2 || true
    exit 1
}
"$out/codbatch" -campaign 7:100 -list >/dev/null
# Warm rerun: every verdict replays from the cache — zero live dry-runs —
# and every job takes the answer its row holds, except the audited
# fraction (one row in 32 by spec hash: exactly 1 of seed 7's 100), which
# flies and is held to its row.
"$out/codbatch" -campaign 7:100 -headless -strict -campaign-cache "$out/verdicts.jsonl" >"$out/campaign-warm.txt"
grep -q ' 0 live dry-runs' "$out/campaign-warm.txt" || {
    echo "campaign smoke: warm cache rerun still flew dry-runs" >&2
    grep 'verdict cache' "$out/campaign-warm.txt" >&2 || true
    exit 1
}
grep -q '^99 of 100 jobs answered by their certification, 1 flown to audit their cache row' "$out/campaign-warm.txt" || {
    echo "campaign smoke: warm rerun did not answer every unaudited job from its row" >&2
    grep 'jobs answered' "$out/campaign-warm.txt" >&2 || true
    exit 1
}

echo "== fuzz smoke (Spec JSON surface with MarshalSpec held to json.MarshalIndent, span rasterizer vs the integer box walk with its products checked against 2^62, wire frames in place vs copied out, AttrSets, the cod codec's decode of any set, the verdict-cache loader; 10 s per target) =="
# -fuzzminimizetime bounds the shrinking of each new interesting input: by
# default it may take up to 60 s, so one early find could spend the whole
# 10 s budget minimizing instead of fuzzing.
go test -run '^$' -fuzz '^FuzzUnmarshalSpec$' -fuzztime 10s -fuzzminimizetime 1s ./internal/scenario
go test -run '^$' -fuzz '^FuzzValidate$' -fuzztime 10s -fuzzminimizetime 1s ./internal/scenario
go test -run '^$' -fuzz '^FuzzRasterTriangle$' -fuzztime 10s -fuzzminimizetime 1s ./internal/render
go test -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime 10s -fuzzminimizetime 1s ./internal/wire
go test -run '^$' -fuzz '^FuzzAttrSetOps$' -fuzztime 10s -fuzzminimizetime 1s ./internal/wire
go test -run '^$' -fuzz '^FuzzDecodeInto$' -fuzztime 10s -fuzzminimizetime 1s ./cod
go test -run '^$' -fuzz '^FuzzOpenCache$' -fuzztime 10s -fuzzminimizetime 1s ./internal/scenario/gen

echo "== dist CLI smoke (codbatch coordinator + 2 worker processes, UDPLAN loopback) =="
"$out/codbatch" -serve -lan 127.0.0.1:47901 -name smoke1 -headless -obs 127.0.0.1:47911 >"$out/w1.log" 2>&1 &
w1=$!
"$out/codbatch" -serve -lan 127.0.0.1:47901 -name smoke2 -headless >"$out/w2.log" 2>&1 &
w2=$!
# timeout: if a worker failed at startup (port clash with a stray run),
# the coordinator would otherwise wait for its heartbeat forever.
# -compare: the two-process sweep must not fall below the local batch
# smoke's pass rate or p50 score on any scenario both ran.
timeout 120 "$out/codbatch" -coordinator smoke1,smoke2 -lan 127.0.0.1:47901 \
    -scenarios classic-exam,blind-lift,tandem-beam,twin-yard -repeat 2 -headless -strict \
    -out "$out/dist-results.jsonl" -compare "$out/results.jsonl" >"$out/dist-report.txt"
tail -n 3 "$out/dist-report.txt"

echo "== obs smoke (telemetry plane on worker smoke1: /metrics + /healthz) =="
curl -fsS http://127.0.0.1:47911/healthz | grep -q '^ok'
# One post-sweep scrape suffices: the scrape reads every source itself,
# and the codsim_cb_sub_* lifetime totals survive the sweep's channel
# teardown (the per-channel codsim_cb_channel_* series die with their
# channels, so the smoke doesn't race the sweep to see them).
curl -fsS http://127.0.0.1:47911/metrics >"$out/metrics.txt"
for series in 'codsim_dist_jobs{role="worker"' codsim_job_phase_seconds_bucket \
    codsim_cb_stat codsim_cb_sub_frames_total codsim_obs_samples_total; do
    grep -qF "$series" "$out/metrics.txt" || {
        echo "obs smoke: series $series missing from /metrics" >&2
        exit 1
    }
done

echo "OK"
