package analysis_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"codsim/internal/analysis"
)

// The fixtures live under two overlay roots. testdata/src is the shared
// root: fixture-local packages (policyfix, errwrapfix) and
// boundary-scoped shadows (codsim/cmd/layerfix). The determinism
// fixtures shadow real declared-deterministic packages
// (codsim/internal/scenario, codsim/internal/mathx) and therefore get
// their own root, testdata/src_determinism, so fixtures importing the
// real packages keep seeing them, not the shadows.

func determinismRoot() string {
	return filepath.Join(analysis.Testdata(), "..", "src_determinism")
}

// recordTB captures harness errors so a test can assert that a fixture
// run without an allowlist entry does produce the finding the entry
// suppresses.
type recordTB struct {
	t      *testing.T
	errors []string
}

func (r *recordTB) Helper() {}
func (r *recordTB) Errorf(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}
func (r *recordTB) Fatalf(format string, args ...any) { r.t.Fatalf(format, args...) }

func TestDeterminismFixture(t *testing.T) {
	analysis.RunFixture(t, determinismRoot(), analysis.Determinism, nil,
		"codsim/internal/scenario")
}

func TestDeterminismAllowlist(t *testing.T) {
	allow := []analysis.AllowEntry{{
		Analyzer: "determinism",
		Pkg:      "codsim/internal/mathx",
		Detail:   "wallClock",
		Reason:   "test-injected exception",
	}}
	analysis.RunFixture(t, determinismRoot(), analysis.Determinism, allow,
		"codsim/internal/mathx")

	// Without the entry the same fixture must yield exactly the finding
	// the allowlist suppressed — proving the entry, not a gutted check,
	// kept the run above clean.
	rec := &recordTB{t: t}
	analysis.RunFixture(rec, determinismRoot(), analysis.Determinism, nil,
		"codsim/internal/mathx")
	if len(rec.errors) != 1 || !strings.Contains(rec.errors[0], "time.Now") {
		t.Fatalf("expected exactly one time.Now diagnostic without the allow entry, got %q", rec.errors)
	}
}

func TestPolicyDeclFixture(t *testing.T) {
	analysis.RunFixture(t, analysis.Testdata(), analysis.PolicyDecl, nil, "policyfix")
}

func TestLayeringFixture(t *testing.T) {
	analysis.RunFixture(t, analysis.Testdata(), analysis.Layering, nil,
		"codsim/cmd/layerfix", "codsim/examples/layerfix", "codsim/internal/obs")
}

func TestLayeringAllowlist(t *testing.T) {
	allow := []analysis.AllowEntry{{
		Analyzer: "layering",
		Pkg:      "codsim/cmd/layerallow",
		Detail:   "codsim/internal/cb",
		Reason:   "test-injected exception",
	}}
	analysis.RunFixture(t, analysis.Testdata(), analysis.Layering, allow,
		"codsim/cmd/layerallow")

	rec := &recordTB{t: t}
	analysis.RunFixture(rec, analysis.Testdata(), analysis.Layering, nil,
		"codsim/cmd/layerallow")
	if len(rec.errors) != 1 || !strings.Contains(rec.errors[0], "codsim/internal/cb") {
		t.Fatalf("expected exactly one boundary diagnostic without the allow entry, got %q", rec.errors)
	}
}

func TestErrWrapFixture(t *testing.T) {
	analysis.RunFixture(t, analysis.Testdata(), analysis.ErrWrap, nil, "errwrapfix")
}

// The nopool fixtures shadow real packages (a non-exempt one and an
// exempt one) and therefore live in their own root, like determinism's.
func nopoolRoot() string {
	return filepath.Join(analysis.Testdata(), "..", "src_nopool")
}

func TestNoPoolFixture(t *testing.T) {
	analysis.RunFixture(t, nopoolRoot(), analysis.NoPool, nil,
		"codsim/internal/obs")
}

// TestClockPackageFixture holds a clock package (a shadow of
// internal/dist, in its own root like nopool's) to reading time through
// internal/clock.
func TestClockPackageFixture(t *testing.T) {
	analysis.RunFixture(t, filepath.Join(analysis.Testdata(), "..", "src_clock"),
		analysis.Determinism, nil, "codsim/internal/dist")
}

// TestNoPoolExemptPackages proves the boundary packages stay unflagged:
// the wire shadow declares a pool with no want comments, so any
// diagnostic fails the run.
func TestNoPoolExemptPackages(t *testing.T) {
	analysis.RunFixture(t, nopoolRoot(), analysis.NoPool, nil,
		"codsim/internal/wire")
}
