package render

import (
	"math"
	"testing"
	"testing/quick"

	"codsim/internal/mathx"
)

// TestDegenerateTriangles: zero-area and collinear triangles must not
// panic or shade any pixels.
func TestDegenerateTriangles(t *testing.T) {
	cases := [][]mathx.Vec3{
		{{X: 0, Y: 0, Z: -5}, {X: 0, Y: 0, Z: -5}, {X: 0, Y: 0, Z: -5}},  // point
		{{X: -1, Y: 0, Z: -5}, {X: 0, Y: 0, Z: -5}, {X: 1, Y: 0, Z: -5}}, // collinear
	}
	for i, verts := range cases {
		m, err := NewMesh(verts, [][3]int{{0, 1, 2}}, []RGB{{R: 255}})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRenderer(32, 32)
		if err != nil {
			t.Fatal(err)
		}
		scene := &Scene{Instances: []Instance{{Mesh: m, Transform: mathx.Identity4()}}, Ambient: 1}
		stats := r.Render(scene, frontCamera())
		if stats.Pixels != 0 {
			t.Errorf("case %d: degenerate triangle shaded %d pixels", i, stats.Pixels)
		}
	}
}

// TestSubPixelTriangle: a triangle smaller than one pixel is handled
// gracefully (either zero or one pixel, never a crash or smear).
func TestSubPixelTriangle(t *testing.T) {
	verts := []mathx.Vec3{
		{X: 0, Y: 0, Z: -50},
		{X: 0.01, Y: 0, Z: -50},
		{X: 0, Y: 0.01, Z: -50},
	}
	m, err := NewMesh(verts, [][3]int{{0, 1, 2}}, []RGB{{G: 255}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRenderer(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	scene := &Scene{Instances: []Instance{{Mesh: m, Transform: mathx.Identity4()}}, Ambient: 1}
	stats := r.Render(scene, frontCamera())
	if stats.Pixels > 4 {
		t.Errorf("sub-pixel triangle shaded %d pixels", stats.Pixels)
	}
}

// TestRandomTrianglesNeverPanic: arbitrary triangles through the full
// pipeline (cull, clip, raster) must never panic or write out of bounds.
func TestRandomTrianglesNeverPanic(t *testing.T) {
	r, err := NewRenderer(48, 48)
	if err != nil {
		t.Fatal(err)
	}
	cam := frontCamera()
	f := func(coords [9]float64) bool {
		clampC := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 100)
		}
		verts := []mathx.Vec3{
			{X: clampC(coords[0]), Y: clampC(coords[1]), Z: clampC(coords[2])},
			{X: clampC(coords[3]), Y: clampC(coords[4]), Z: clampC(coords[5])},
			{X: clampC(coords[6]), Y: clampC(coords[7]), Z: clampC(coords[8])},
		}
		m, err := NewMesh(verts, [][3]int{{0, 1, 2}}, []RGB{{B: 200}})
		if err != nil {
			return false
		}
		scene := &Scene{Instances: []Instance{{Mesh: m, Transform: mathx.Identity4()}}, Ambient: 0.5}
		r.Render(scene, cam) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFrameStatsConsistency: submitted = culled + clipped-degenerates +
// rasterized is not an exact identity (clipping can split triangles), but
// rasterized + culled must always be >= submitted and pixels must be zero
// when rasterized is zero.
func TestFrameStatsConsistency(t *testing.T) {
	r, err := NewRenderer(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	scene := &Scene{
		Instances: []Instance{
			{Mesh: Box(1, 1, 1, RGB{R: 250}), Transform: mathx.Translate(mathx.V3(0, 0, -5))},
			{Mesh: Box(1, 1, 1, RGB{G: 250}), Transform: mathx.Translate(mathx.V3(0, 0, 50))}, // behind camera
		},
		Ambient: 1,
	}
	stats := r.Render(scene, frontCamera())
	if stats.Submitted != 24 {
		t.Errorf("Submitted = %d, want 24", stats.Submitted)
	}
	if stats.Rasterized+stats.Culled < stats.Submitted {
		t.Errorf("stats don't account for all triangles: %+v", stats)
	}
	if stats.Rasterized == 0 && stats.Pixels != 0 {
		t.Errorf("pixels without rasterized triangles: %+v", stats)
	}
}

// TestDepthCapture: the depth plane a test captures from the bands holds
// smaller values where geometry is nearer and the far plane where there is
// none — in a band the triangle reaches and in one it does not.
func TestDepthCapture(t *testing.T) {
	r, err := NewRenderer(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	withDepth(r).setBandRows(8)
	scene := singleTriScene(RGB{R: 255})
	r.Render(scene, frontCamera())
	w := r.fb.W
	center := r.capture[36*w+32]
	if math.IsInf(center, 1) {
		t.Fatal("center depth untouched")
	}
	for _, at := range [][2]int{{2, 2}, {2, 36}} {
		if corner := r.capture[at[1]*w+at[0]]; !math.IsInf(corner, 1) {
			t.Errorf("background depth at %v = %v, want +Inf", at, corner)
		}
	}
	if center >= 1 || center <= -1 {
		t.Errorf("center depth %v outside NDC", center)
	}
}
