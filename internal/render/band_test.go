package render

import (
	"testing"

	"codsim/internal/mathx"
	"codsim/internal/terrain"
)

// What the band traversal adds to the kernel is a triangle cut by a band's
// edge and scratch that lives from frame to frame; everything else the
// reference and the golden hold already.

// TestBandHeightDoesNotChangeTheFrame renders golden-style poses — cab
// eyes, a ground-level eye, the bar course — in bands of 1, 2 and 7 rows,
// of the derived height and of the whole frame, and requires the same
// colour plane, depth plane and ledger of all of them.
func TestBandHeightDoesNotChangeTheFrame(t *testing.T) {
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		t.Fatal(err)
	}
	site := paperScene(t, ter)
	bars, barEye := barCourse(ter, 100, 106, 0)
	course := paperScene(t, ter, bars...)

	derived := withDepth(paperRenderer(t))
	var others []*Renderer
	for _, rows := range []int{1, 2, 7, paperH} {
		r := withDepth(paperRenderer(t))
		r.setBandRows(rows)
		others = append(others, r)
	}

	rng := testRNG(20010416)
	for i := 0; i < 7; i++ {
		b, p := site, randomPose(&rng, ter, i%3 == 2)
		if i == 6 {
			b = course
			p.st.Position = mathx.V3(100, ter.HeightAt(100, 94), 94)
			p.eye, p.heading = barEye, 0
		}
		b.UpdateCrane(0, p.st)
		for ci, cam := range p.cameras() {
			want := derived.Render(b.Scene(), cam)
			for _, r := range others {
				if got := r.Render(b.Scene(), cam); got != want {
					t.Fatalf("pose %d camera %d, bands of %d rows: ledger %+v, of %d rows %+v", i, ci, r.rows, got, derived.rows, want)
				}
				if err := samePlanes(r, derived); err != nil {
					t.Fatalf("pose %d camera %d, bands of %d rows: %v", i, ci, r.rows, err)
				}
			}
		}
	}
}

// TestBandHeightFollowsWidth: a band is as many whole rows as fit
// bandBytes, one at least, the whole frame at most.
func TestBandHeightFollowsWidth(t *testing.T) {
	for _, c := range []struct{ w, h, rows int }{
		{640, 480, 13}, {maxDim, 3, 1}, {3, maxDim, 2978}, {64, 48, 48}, {1, 1, 1},
	} {
		r, err := NewRenderer(c.w, c.h)
		if err != nil {
			t.Fatal(err)
		}
		if r.rows != c.rows || len(r.depth) != c.rows*c.w {
			t.Errorf("%dx%d: bands of %d rows over %d depth values, want %d rows", c.w, c.h, r.rows, len(r.depth), c.rows)
		}
	}
}

// TestRenderAllocatesNothing: after one frame has sized the triangle bin
// and the clip scratch, a frame allocates nothing — the frames of the two
// kernel benchmarks, of which the second clips dozens of triangles.
func TestRenderAllocatesNothing(t *testing.T) {
	for name, frame := range map[string]func(testing.TB) (*Scene, Camera){"site": siteFrame, "near clip": nearClipFrame} {
		scene, cam := frame(t)
		r := paperRenderer(t)
		if s := r.Render(scene, cam); s.Rasterized == 0 {
			t.Fatalf("%s: %+v: nothing drawn", name, s)
		}
		if allocs := testing.AllocsPerRun(5, func() { r.Render(scene, cam) }); allocs != 0 {
			t.Errorf("%s: a frame allocates %v times, want 0", name, allocs)
		}
	}
}
