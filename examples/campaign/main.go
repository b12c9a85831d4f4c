// Campaign generates a seeded procedural training campaign and flies it
// headless: the gen package samples scenario candidates from the proven
// library envelopes, certifies each with the completability oracle (a
// static reachability check, then an expert-autopilot dry-run), and the
// certified stream feeds sim.RunBatch, whose results print as the same
// table codbatch prints (dist.WriteReport). The same seed always
// reproduces the same campaign — rejected candidates are resampled under
// the seed stream, so the oracle never costs determinism.
//
// cmd/codbatch wraps this flow as `codbatch -campaign seed:count`, there
// dispatched through the dist coordinator instead of run in-process.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"codsim/internal/dist"
	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
	"codsim/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		seed  = 2001 // change it and the whole campaign changes — reproducibly
		count = 10
	)
	params := gen.DefaultParams()
	fmt.Printf("campaign %s\n", gen.Key(seed, count, params))

	// Stream certified scenarios: candidate k is Generate(SubSeed(seed,k),
	// params); the default oracle flies each candidate headless and vetoes
	// the uncompletable, which are resampled from the same stream. With
	// Prefetch a lane per core certifies ahead of this loop; what comes out
	// of Next, and in which order, is the same either way. A prefetching
	// stream owns goroutines, so it is closed.
	stream := gen.NewStream(seed, params)
	stream.Prefetch = true
	defer stream.Close()
	specs := make([]scenario.Spec, 0, count)
	for len(specs) < count {
		spec, cand, err := stream.Next(context.Background())
		if err != nil {
			return err
		}
		fmt.Printf("  #%-3d cand %-3d %-12s %d crane(s), %d cargo(s)\n",
			len(specs), cand, spec.Name, spec.CraneCount(), len(spec.Cargos))
		specs = append(specs, spec)
	}
	st := stream.Stats()
	fmt.Printf("certified %d of %d candidates (%d static + %d oracle rejects resampled)\n\n",
		st.Emitted, st.Candidates, st.StaticRejects, st.OracleRejects)

	// Fly the certified campaign — every run must pass, since the oracle
	// already proved each spec with the same expert coupling.
	results := sim.RunBatch(context.Background(), specs, sim.BatchConfig{Headless: true})
	recs := make([]dist.Record, len(results))
	for i, r := range results {
		recs[i] = dist.NewRecord(dist.Job{ID: int64(i), Spec: specs[i]}, r, "")
	}
	dist.WriteReport(os.Stdout, dist.BuildReport(recs))
	for _, r := range results {
		if !r.Passed {
			return fmt.Errorf("certified scenario %s did not pass", r.Scenario)
		}
	}
	return nil
}
