package render

import (
	"fmt"
	"math"
	"testing"

	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/terrain"
)

// The reference rasterizer: Render and rasterTriangle as they stood before
// the span kernel — every vertex transformed per triangle, two edge
// functions evaluated at every pixel of the bounding box. It exists to be
// compared against; only the allOutside and clipNear call sites follow
// those functions' new signatures, and the shade is computed ahead of the
// frustum test so that refTriangle can take a clip-space triangle on its
// own.

// refRender is the reference Render.
func (r *Renderer) refRender(scene *Scene, cam Camera) FrameStats {
	var stats FrameStats
	fb := r.fb
	fb.Clear(scene.Background)

	light := scene.LightDir.Normalize()
	if light.LenSq() == 0 {
		light = mathx.V3(0.3, 1, 0.2).Normalize()
	}
	vp := cam.ViewProj()

	for _, inst := range scene.Instances {
		mvp := vp.MulM(inst.Transform)
		mesh := inst.Mesh
		for ti, tri := range mesh.tris {
			stats.Submitted++
			// World-space vertices for lighting.
			w0 := inst.Transform.MulPoint(mesh.verts[tri[0]])
			w1 := inst.Transform.MulPoint(mesh.verts[tri[1]])
			w2 := inst.Transform.MulPoint(mesh.verts[tri[2]])

			// Clip-space positions.
			c0, cw0 := mvp.MulPointW(mesh.verts[tri[0]])
			c1, cw1 := mvp.MulPointW(mesh.verts[tri[1]])
			c2, cw2 := mvp.MulPointW(mesh.verts[tri[2]])
			cv := [3]clipVert{{c0, cw0}, {c1, cw1}, {c2, cw2}}

			// Flat shading from the world-space face normal.
			normal := w1.Sub(w0).Cross(w2.Sub(w0)).Normalize()
			diff := math.Max(0, normal.Dot(light))
			shade := mathx.Clamp(scene.Ambient+(1-scene.Ambient)*diff, 0, 1)
			base := mesh.colors[ti]
			col := RGB{
				R: uint8(float64(base.R) * shade),
				G: uint8(float64(base.G) * shade),
				B: uint8(float64(base.B) * shade),
			}
			r.refTriangle(&cv, col, &stats)
		}
	}
	return stats
}

// refTriangle takes one clip-space triangle through the reference's
// frustum test, near clip and scan.
func (r *Renderer) refTriangle(cv *[3]clipVert, col RGB, stats *FrameStats) {
	// Trivial frustum rejection: all vertices outside one plane.
	if allOutside(&cv[0], &cv[1], &cv[2]) {
		stats.Culled++
		return
	}

	// Near-plane clip (w <= nearEps would break the divide).
	var poly [4]clipVert
	n, clipped := clipNear(&cv[0], &cv[1], &cv[2], &poly)
	if n < 3 {
		stats.Culled++
		return
	}
	if clipped {
		stats.Clipped++
	}

	// Fan-triangulate the clipped polygon and rasterize.
	for k := 1; k+1 < n; k++ {
		if r.refRasterTriangle(poly[0], poly[k], poly[k+1], col, stats) {
			stats.Rasterized++
		} else {
			stats.Culled++
		}
	}
}

// refRasterTriangle scan-converts one clip-space triangle; reports whether
// it produced fragments (false = backface or degenerate). Visited is the
// one addition: the bounding-box pixel count the span kernel is measured
// against.
func (r *Renderer) refRasterTriangle(a, b, c clipVert, col RGB, stats *FrameStats) bool {
	fb := r.fb
	w, h := float64(fb.W), float64(fb.H)

	// Perspective divide to NDC, then to screen.
	toScreen := func(v clipVert) (x, y, z float64) {
		inv := 1 / v.w
		return (v.p.X*inv + 1) * 0.5 * w, (1 - v.p.Y*inv) * 0.5 * h, v.p.Z * inv
	}
	x0, y0, z0 := toScreen(a)
	x1, y1, z1 := toScreen(b)
	x2, y2, z2 := toScreen(c)

	// Signed area: cull backfaces (counter-clockwise in screen space after
	// the Y flip means the area is negative for front faces).
	area := (x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)
	if area >= -1e-12 { // backface or degenerate
		return false
	}
	invArea := 1 / area

	minX := int(math.Max(0, math.Floor(math.Min(x0, math.Min(x1, x2)))))
	maxX := int(math.Min(w-1, math.Ceil(math.Max(x0, math.Max(x1, x2)))))
	minY := int(math.Max(0, math.Floor(math.Min(y0, math.Min(y1, y2)))))
	maxY := int(math.Min(h-1, math.Ceil(math.Max(y0, math.Max(y1, y2)))))
	if minX > maxX || minY > maxY {
		return false
	}
	stats.Visited += (maxX - minX + 1) * (maxY - minY + 1)

	for py := minY; py <= maxY; py++ {
		fy := float64(py) + 0.5
		rowBase := py * fb.W
		for px := minX; px <= maxX; px++ {
			fx := float64(px) + 0.5
			// Barycentric coordinates via edge functions.
			w0 := ((x1-fx)*(y2-fy) - (x2-fx)*(y1-fy)) * invArea
			w1 := ((x2-fx)*(y0-fy) - (x0-fx)*(y2-fy)) * invArea
			w2 := 1 - w0 - w1
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			z := w0*z0 + w1*z1 + w2*z2
			idx := rowBase + px
			if z < fb.Depth[idx] {
				fb.Depth[idx] = z
				fb.Color[idx] = col
				stats.Pixels++
			}
		}
	}
	return true
}

// underRace is set by race_test.go in -race builds.
var underRace bool

// samePlanes compares two framebuffers bit for bit, depth by its bits so
// that a NaN or a signed zero cannot hide.
func samePlanes(got, want *Framebuffer) error {
	for i := range want.Color {
		if got.Color[i] != want.Color[i] {
			return fmt.Errorf("colour differs at (%d,%d): got %v, reference %v", i%want.W, i/want.W, got.Color[i], want.Color[i])
		}
		if math.Float64bits(got.Depth[i]) != math.Float64bits(want.Depth[i]) {
			return fmt.Errorf("depth differs at (%d,%d): got %v, reference %v", i%want.W, i/want.W, got.Depth[i], want.Depth[i])
		}
	}
	return nil
}

// sameLedger compares every FrameStats field except Visited, the one the
// two kernels are meant to differ in.
func sameLedger(got, want FrameStats) bool {
	got.Visited, want.Visited = 0, 0
	return got == want
}

// TestRasterMatchesReference renders random crane poses through the three
// surround cameras with both kernels and requires identical colour and
// depth planes and identical ledgers — cab eyes, ground-level eyes, and a
// ground-level eye in a bar course that the near plane cuts a hundred
// times a frame.
func TestRasterMatchesReference(t *testing.T) {
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		t.Fatal(err)
	}
	poses := 200
	if testing.Short() || underRace {
		poses = 40
	}
	site := paperScene(t, ter)
	bars, barEye := barCourse(ter, 60, 140, 2.1)
	course := paperScene(t, ter, bars...)

	r, ref := paperRenderer(t), paperRenderer(t)
	rng := testRNG(3235)
	for i := 0; i < poses; i++ {
		b := site
		p := randomPose(&rng, ter, i%4 == 3)
		if i%8 == 5 {
			b = course
			p.eye, p.heading = barEye, 2.1+rng.float(-0.5, 0.5)
		}
		b.UpdateCrane(0, p.st)
		for ci, cam := range p.cameras() {
			got, want := r.Render(b.Scene(), cam), ref.refRender(b.Scene(), cam)
			if !sameLedger(got, want) {
				t.Fatalf("pose %d camera %d: ledger %+v, reference %+v", i, ci, got, want)
			}
			if got.Visited < got.Pixels || got.Visited > want.Visited {
				t.Fatalf("pose %d camera %d: visited %d pixels, wrote %d, bounding boxes hold %d", i, ci, got.Visited, got.Pixels, want.Visited)
			}
			if err := samePlanes(r.Framebuffer(), ref.Framebuffer()); err != nil {
				t.Fatalf("pose %d camera %d: %v", i, ci, err)
			}
		}
	}
}

// TestVisitedCount pins the span kernel's mechanism without a clock: on
// the EXP-1 rig's three cameras the scan evaluates at most half the pixels
// the bounding boxes hold, and never fewer than it writes.
func TestVisitedCount(t *testing.T) {
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		t.Fatal(err)
	}
	b := paperScene(t, ter)
	p := exp1Pose(ter)
	b.UpdateCrane(0, p.st)
	r, ref := paperRenderer(t), paperRenderer(t)
	for ci, cam := range p.cameras() {
		got, want := r.Render(b.Scene(), cam), ref.refRender(b.Scene(), cam)
		t.Logf("camera %d: wrote %d, visited %d, bounding boxes %d", ci, got.Pixels, got.Visited, want.Visited)
		if got.Pixels != want.Pixels {
			t.Errorf("camera %d: wrote %d pixels, reference %d", ci, got.Pixels, want.Pixels)
		}
		if got.Visited < got.Pixels {
			t.Errorf("camera %d: visited %d pixels but wrote %d", ci, got.Visited, got.Pixels)
		}
		if 2*got.Visited > want.Visited {
			t.Errorf("camera %d: visited %d pixels, more than half the bounding boxes' %d", ci, got.Visited, want.Visited)
		}
	}
}

// exp1Pose is the pose and cab eye of the EXP-1 render rig
// (cmd/experiments, bench_test.go).
func exp1Pose(ter *terrain.Map) framePose {
	st := fom.CraneState{
		Position: mathx.V3(100, ter.HeightAt(100, 100), 100),
		BoomLuff: mathx.Rad(45), BoomLen: 14, CableLen: 6,
		HookPos:  mathx.V3(100, 6, 90),
		CargoPos: mathx.V3(100, 1, 90),
	}
	return framePose{st: st, eye: st.Position.Add(mathx.V3(0, 3.2, 0))}
}
