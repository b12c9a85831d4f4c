package render

import (
	"fmt"
	"math"
	"testing"

	"codsim/internal/mathx"
)

// clipTriangleRig draws single clip-space triangles with both scans on
// small framebuffers of their own.
type clipTriangleRig struct {
	r, ref *Renderer
}

func newClipTriangleRig(tb testing.TB, w, h int) *clipTriangleRig {
	tb.Helper()
	r, err := NewRenderer(w, h)
	if err != nil {
		tb.Fatal(err)
	}
	ref, err := NewRenderer(w, h)
	if err != nil {
		tb.Fatal(err)
	}
	return &clipTriangleRig{r: withDepth(r), ref: withDepth(ref)}
}

// check draws cv with the span kernel and with the reference and compares
// planes and ledgers. There is no triangle the reference is undefined
// for: what the guard band cannot hold is culled before either sees it.
func (rig *clipTriangleRig) check(cv [3]clipVert) error {
	col := RGB{R: 200, G: 100, B: 50}
	r, ref := rig.r, rig.ref
	var got FrameStats
	r.shadeLast(r.setUp(&cv[0], &cv[1], &cv[2], &got), col)
	r.drawBands(RGB{}, &got)

	ref.refClear(RGB{})
	var want FrameStats
	if err := ref.refClipTriangle(&cv[0], &cv[1], &cv[2], col, &want); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("ledger %+v, reference %+v", got, want)
	}
	return samePlanes(r, ref)
}

// FuzzRasterTriangle feeds single clip-space triangles — any float64 the
// engine cares to make of x, y, z, w: huge, tiny, NaN, infinite — through
// the span kernel and the reference scan, in bands of a fuzzed height, so
// that band edges fall on vertices, on horizontal edges and around
// one-row triangles. The seeds are the shapes a renderer meets at its
// edges.
func FuzzRasterTriangle(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	seeds := [][12]float64{
		{-0.5, -0.5, 0.2, 1, 0.5, -0.5, 0.2, 1, 0, 0.6, 0.2, 1},            // plain, front-facing
		{-0.5, -0.5, 0.2, 1, 0, 0.6, 0.2, 1, 0.5, -0.5, 0.2, 1},            // backface
		{-300, -200, 5, 1e3, 400, -100, 9, 1e3, 10, 500, 2, 1e3},           // huge w
		{-3e-6, -2e-6, 0, 2e-5, 4e-6, -1e-6, 0, 3e-5, 1e-7, 5e-6, 0, 2e-5}, // w just past the near plane
		{-1e12, -1e12, 0.5, 1, 1e12, -1e12, 0.5, 1, 0, 1e12, 0.5, 1},       // covers the screen from 1e12 away
		{-1e12, -1e12, 1, 1e-5, 1e12, -1e12, 1, 2e-5, 3, 1e12, 1, 1e-5},    // 1e12 over a tiny w
		{-0.5, -0.5, 0.2, 1, 0.5, -0.5, 0.2, -1, 0, 0.6, 0.2, 1},           // one vertex behind the eye
		{-0.5, -0.5, 0.2, -1, 0.5, -0.5, 0.2, -2, 0, 0.6, 0.2, 1},          // two behind
		{0.1, 0.1, 0.2, 1, 0.1, 0.1, 0.2, 1, 0.1, 0.1, 0.2, 1},             // a point
		{-0.9, 0, 0.2, 1, 0, 0, 0.2, 1, 0.9, 0, 0.2, 1},                    // collinear, horizontal
		{-0.9, -0.9, 0.2, 1, 0.9, 0.9, 0.2, 1, 0.9, 0.9000001, 0.2, 1},     // sliver along the diagonal
		{-0.9, 0.01, 0.2, 1, 0.9, 0.01, 0.2, 1, 0, 0.0100001, 0.2, 1},      // sliver along a row
		{0, 0, 0.2, 1, 0.01, 0, 0.2, 1, 0, 0.01, 0.2, 1},                   // inside one pixel
		{5, 5, 0.2, 1, 6, 5, 0.2, 1, 5.5, 6, 0.2, 1},                       // off-screen
		{-0.5, nan, 0.2, 1, 0.5, -0.5, 0.2, 1, 0, 0.6, 0.2, 1},             // NaN coordinate
		{-0.5, -0.5, nan, 1, 0.5, -0.5, 0.2, 1, 0, 0.6, 0.2, 1},            // NaN depth
		{-0.5, -0.5, 0.2, nan, 0.5, -0.5, 0.2, 1, 0, 0.6, 0.2, 1},          // NaN w
		{-inf, -0.5, 0.2, 1, 0.5, -0.5, 0.2, 1, 0, 0.6, 0.2, 1},            // infinite coordinate
		{inf, 0, 0.2, 1, inf, 1, 0.2, 1, inf, -1, 0.2, 1},                  // all at +∞
		{-0.5, -0.5, 0.2, inf, 0.5, -0.5, 0.2, 1, 0, 0.6, 0.2, 1},          // infinite w
		{-1e300, -1e300, 0, 1, 1e300, -1e300, 0, 1, 0, 1e300, 0, 1},        // products overflow
		{-1e-300, -1e-300, 0, 1, 1e-300, -1e-300, 0, 1, 0, 1e-300, 0, 1},   // products underflow
		// Corners on pixel centres of the rig's 64×48 framebuffer, (8.5, 8.5),
		// (8.5, 40.5), (40.5, 8.5) and (40.5, 40.5): every edge runs through
		// pixel centres, and the two triangles own a left and a top edge, and
		// a right and a bottom edge.
		{-0.734375, 1 - 8.5/24, 0.2, 1, -0.734375, 1 - 40.5/24, 0.2, 1, 0.265625, 1 - 8.5/24, 0.2, 1},
		{0.265625, 1 - 40.5/24, 0.2, 1, 0.265625, 1 - 8.5/24, 0.2, 1, -0.734375, 1 - 40.5/24, 0.2, 1},
	}
	// The seeds take these band heights, less one, in turn. The last two
	// get 8 and 4 rows: band edges right above their corners' rows, 8 and 40.
	bands := [...]uint8{0, 1, 12, 46, 7, 3}
	for i, s := range seeds {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], bands[i%len(bands)])
	}
	const w, h = 64, 48
	rig := newClipTriangleRig(f, w, h)
	f.Fuzz(func(t *testing.T, x0, y0, z0, w0, x1, y1, z1, w1, x2, y2, z2, w2 float64, band uint8) {
		cv := [3]clipVert{
			{mathx.V3(x0, y0, z0), w0},
			{mathx.V3(x1, y1, z1), w1},
			{mathx.V3(x2, y2, z2), w2},
		}
		rig.r.setBandRows(1 + int(band)%h)
		if err := rig.check(cv); err != nil {
			t.Fatalf("%v in bands of %d rows: %v", cv, rig.r.rows, err)
		}
	})
}

// TestRandomClipTrianglesMatchReference is the fuzz target's bulk run for
// tier-1: seeded clip-space triangles whose coordinates and w spread over
// twenty-four decades, ordinary ones, slivers thinner than an ulp of their
// length, and ones with vertices behind the eye, each kind in bands of
// every height from one row to the frame.
func TestRandomClipTrianglesMatchReference(t *testing.T) {
	n := 100000
	if testing.Short() || underRace {
		n = 20000
	}
	rig := newClipTriangleRig(t, 64, 48)
	rng := testRNG(640480)
	mag := rng.mag
	for i := 0; i < n; i++ {
		var cv [3]clipVert
		switch i % 4 {
		case 0: // on and around the screen
			for k := range cv {
				cv[k] = clipVert{mathx.V3(rng.float(-1.5, 1.5), rng.float(-1.5, 1.5), rng.float(-1, 1)), 1}
			}
		case 1: // every magnitude
			for k := range cv {
				cv[k] = clipVert{mathx.V3(mag(-6, 12), mag(-6, 12), mag(-6, 12)), math.Abs(mag(-6, 6))}
			}
		case 2: // a sliver: the third vertex almost on the line through the others
			a := mathx.V3(rng.float(-2, 2), rng.float(-2, 2), 0.1)
			b := mathx.V3(rng.float(-2, 2), rng.float(-2, 2), 0.3)
			c := a.Lerp(b, rng.float(-1, 2)).Add(mathx.V3(mag(-18, -3), mag(-18, -3), 0))
			w := math.Abs(mag(-4, 2))
			cv = [3]clipVert{{a.Scale(w), w}, {b.Scale(w), w}, {c.Scale(w), w}}
		case 3: // vertices on both sides of the eye
			for k := range cv {
				cv[k] = clipVert{mathx.V3(mag(-2, 3), mag(-2, 3), rng.float(-1, 1)), mag(-7, 2)}
			}
		}
		rig.r.setBandRows(1 + i/4%48)
		if err := rig.check(cv); err != nil {
			t.Fatalf("triangle %d %v in bands of %d rows: %v", i, cv, rig.r.rows, err)
		}
	}
}
