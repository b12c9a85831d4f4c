package sim

import (
	"context"
	"testing"

	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
)

// TestBatchGeneratedCampaign runs a slice of oracle-certified generated
// scenarios through the headless batch path: every spec the generator
// emits with the default (expert dry-run) oracle must pass here too,
// since RunBatch headless and the oracle fly the identical coupling.
func TestBatchGeneratedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("generated headless sweep in -short")
	}
	const count = 8
	stream := gen.NewStream(31, gen.DefaultParams())
	specs := make([]scenario.Spec, 0, count)
	for len(specs) < count {
		spec, _, err := stream.Next(context.Background())
		if err != nil {
			t.Fatalf("emit %d: %v", len(specs), err)
		}
		specs = append(specs, spec)
	}
	results := RunBatch(context.Background(), specs, BatchConfig{Headless: true})
	for i, r := range results {
		if r.Err != nil || !r.Passed {
			t.Errorf("generated %s (#%d): passed=%v err=%v", r.Scenario, i, r.Passed, r.Err)
		}
	}
	st := stream.Stats()
	t.Logf("certified %d of %d candidates (%d static, %d oracle rejects)",
		st.Emitted, st.Candidates, st.StaticRejects, st.OracleRejects)
}
