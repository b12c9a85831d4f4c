package render

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/terrain"
)

// The reference: brute force over the same integers. It shares the
// kernel's geometry stage (frustum test, clip, divide, snap) and the depth
// plane's expressions, and from the snapped vertices on has none of its
// set-up or span machinery: the area and the three edge functions are
// formed at every pixel centre of the vertices' bounding box, their
// products checked against the bit budget, and the fill rule is applied as
// its definition reads.

// refRender is Render with refTriangle in the place of setup and scan.
func (r *Renderer) refRender(scene *Scene, cam Camera) (FrameStats, error) {
	var stats FrameStats
	r.refClear(scene.Background)
	light := scene.light()
	vp := cam.ViewProj()
	for i := range scene.Instances {
		inst := &scene.Instances[i]
		mvp := vp.MulM(inst.Transform)
		clip := r.toClip(&mvp, inst.Mesh.verts)
		for ti, tri := range inst.Mesh.tris {
			stats.Submitted++
			col := flatShade(inst, ti, light, scene.Ambient)
			if err := r.refClipTriangle(&clip[tri[0]], &clip[tri[1]], &clip[tri[2]], col, &stats); err != nil {
				return stats, err
			}
		}
	}
	return stats, nil
}

// refClipTriangle is setUp and the scan of its fan, by the reference.
func (r *Renderer) refClipTriangle(a, b, c *clipVert, col RGB, stats *FrameStats) error {
	if allOutside(a, b, c) {
		stats.Culled++
		return nil
	}
	var poly [maxClipVerts]clipVert
	m, clipped := r.clipTriangle(a, b, c, &poly)
	if m < 3 {
		stats.Culled++
		return nil
	}
	if clipped {
		stats.Clipped++
	}
	for k := 1; k+1 < m; k++ {
		drew := false
		if v, ok := project(r.fb, &poly[0], &poly[k], &poly[k+1]); ok {
			var err error
			if drew, err = r.refTriangle(&v, col, stats); err != nil {
				return err
			}
		}
		if drew {
			stats.Rasterized++
		} else {
			stats.Culled++
		}
	}
	return nil
}

// mul62 is a·b, or an error if the product leaves the bit budget.
func mul62(a, b int64) (int64, error) {
	abs := func(v int64) uint64 { return uint64(max(v, -v)) }
	if hi, lo := bits.Mul64(abs(a), abs(b)); hi != 0 || lo >= 1<<62 {
		return 0, fmt.Errorf("product %d·%d is past 2^62", a, b)
	}
	return a * b, nil
}

// refEdge is the edge function of a→b at (x, y): twice the signed area of
// the triangle a, b, (x, y), positive where a front face has its inside.
func refEdge(a, b *fixVert, x, y int64) (int64, error) {
	p, err := mul62(b.y-a.y, x-a.x)
	if err != nil {
		return 0, err
	}
	q, err := mul62(b.x-a.x, y-a.y)
	return p - q, err
}

// refTriangle draws the triangle with snapped vertices v and reports
// whether it counts as rasterized: a front face with a pixel centre in
// [min, max) of its vertices, both ways. A pixel centre is covered when
// no edge function is negative there and those that are zero belong to an
// edge that owns its points: a left edge, which runs down the screen, or a
// top edge, horizontal and running to the left.
func (r *Renderer) refTriangle(v *[3]fixVert, col RGB, stats *FrameStats) (bool, error) {
	fb := r.fb
	area, err := refEdge(&v[0], &v[1], v[2].x, v[2].y)
	if err != nil || area <= 0 {
		return false, err
	}
	zA, zB, zC := depthPlane(v, -area)
	xmin, xmax := min(v[0].x, v[1].x, v[2].x), max(v[0].x, v[1].x, v[2].x)
	ymin, ymax := min(v[0].y, v[1].y, v[2].y), max(v[0].y, v[1].y, v[2].y)
	px0, px1 := max(xmin>>subBits, 0), min(xmax>>subBits, int64(fb.W-1))
	py0, py1 := max(ymin>>subBits, 0), min(ymax>>subBits, int64(fb.H-1))
	if px0 > px1 || py0 > py1 {
		return false, nil
	}
	// The budget is checked at the box's corner pixels: each of an edge
	// function's two products is linear in x or in y alone, so it is
	// largest there, and the walk below can multiply unchecked.
	for i := range v {
		for _, px := range [2]int64{px0, px1} {
			for _, py := range [2]int64{py0, py1} {
				if _, err := refEdge(&v[i], &v[(i+1)%3], px<<subBits+subHalf, py<<subBits+subHalf); err != nil {
					return false, err
				}
			}
		}
	}
	var ax, ay, dx, dy [3]int64 // edge i runs from (ax, ay) by (dx, dy)
	var owned [3]bool
	for i := range v {
		a, b := &v[i], &v[(i+1)%3]
		ax[i], ay[i], dx[i], dy[i] = a.x, a.y, b.x-a.x, b.y-a.y
		owned[i] = dy[i] > 0 || dy[i] == 0 && dx[i] < 0
	}
	inReach := false
	for py := py0; py <= py1; py++ {
		for px := px0; px <= px1; px++ {
			x, y := px<<subBits+subHalf, py<<subBits+subHalf
			inReach = inReach || xmin <= x && x < xmax && ymin <= y && y < ymax
			covered := true
			for i := 0; i < 3 && covered; i++ {
				e := dy[i]*(x-ax[i]) - dx[i]*(y-ay[i])
				covered = e > 0 || e == 0 && owned[i]
			}
			if !covered {
				continue
			}
			stats.Visited++
			idx := int(py)*fb.W + int(px)
			if z := depthAt(depthRow(zC, zB, int(py)), zA, int(px)); z < r.capture[idx] {
				r.capture[idx] = z
				fb.Color[idx] = col
				stats.Pixels++
			}
		}
	}
	return inReach, nil
}

// underRace is set by race_test.go in -race builds.
var underRace bool

// The product keeps depth one band at a time. A test that compares depth
// renders with withDepth, which has every band's depth rows copied to a
// whole plane, Renderer.capture; the reference draws straight onto its own.

// withDepth makes r keep the depth plane of the frames it renders.
func withDepth(r *Renderer) *Renderer {
	r.capture = make([]float64, r.fb.W*r.fb.H)
	return r
}

// setBandRows makes r draw in bands of n rows, not of the height
// NewRenderer derived.
func (r *Renderer) setBandRows(n int) {
	r.rows = n
	if len(r.depth) < n*r.fb.W {
		r.depth = make([]float64, n*r.fb.W)
	}
}

// refClear readies the planes the reference draws on.
func (r *Renderer) refClear(bg RGB) {
	fill(r.fb.Color, bg)
	fill(r.capture, math.Inf(1))
}

// samePlanes compares two renderers' colour and depth planes bit for bit,
// depth by its bits so that a NaN or a signed zero cannot hide.
func samePlanes(got, want *Renderer) error {
	w := want.fb.W
	for i := range want.fb.Color {
		if got.fb.Color[i] != want.fb.Color[i] {
			return fmt.Errorf("colour differs at (%d,%d): got %v, reference %v", i%w, i/w, got.fb.Color[i], want.fb.Color[i])
		}
		if math.Float64bits(got.capture[i]) != math.Float64bits(want.capture[i]) {
			return fmt.Errorf("depth differs at (%d,%d): got %v, reference %v", i%w, i/w, got.capture[i], want.capture[i])
		}
	}
	return nil
}

// TestRasterMatchesReference renders random crane poses through the three
// surround cameras with both scans and requires identical colour and
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

	r, ref := withDepth(paperRenderer(t)), withDepth(paperRenderer(t))
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
			got := r.Render(b.Scene(), cam)
			want, err := ref.refRender(b.Scene(), cam)
			if err != nil {
				t.Fatalf("pose %d camera %d: %v", i, ci, err)
			}
			if got != want {
				t.Fatalf("pose %d camera %d: ledger %+v, reference %+v", i, ci, got, want)
			}
			if err := samePlanes(r, ref); err != nil {
				t.Fatalf("pose %d camera %d: %v", i, ci, err)
			}
		}
	}
}

// TestVisitedCount pins what FrameStats.Visited means: on the EXP-1 rig's
// three cameras it is the reference's count of covered pixel centres,
// exactly — the spans hold no pixel the triangle does not cover — and so
// never less than the pixels written.
func TestVisitedCount(t *testing.T) {
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		t.Fatal(err)
	}
	b := paperScene(t, ter)
	p := exp1Pose(ter)
	b.UpdateCrane(0, p.st)
	r, ref := paperRenderer(t), withDepth(paperRenderer(t))
	for ci, cam := range p.cameras() {
		got := r.Render(b.Scene(), cam)
		want, err := ref.refRender(b.Scene(), cam)
		if err != nil {
			t.Fatalf("camera %d: %v", ci, err)
		}
		t.Logf("camera %d: wrote %d of %d covered", ci, got.Pixels, got.Visited)
		if got.Visited != want.Visited || got.Pixels != want.Pixels {
			t.Errorf("camera %d: covered %d and wrote %d pixels, reference %d and %d", ci, got.Visited, got.Pixels, want.Visited, want.Pixels)
		}
		if got.Visited < got.Pixels || got.Visited < paperW*paperH/4 {
			t.Errorf("camera %d: covered %d pixels, wrote %d", ci, got.Visited, got.Pixels)
		}
	}
}

// exp1Pose is the pose and cab eye of the EXP-1 render rig
// (BenchmarkSurroundView* in bench_test.go).
func exp1Pose(ter *terrain.Map) framePose {
	st := fom.CraneState{
		Position: mathx.V3(100, ter.HeightAt(100, 100), 100),
		BoomLuff: mathx.Rad(45), BoomLen: 14, CableLen: 6,
		HookPos:  mathx.V3(100, 6, 90),
		CargoPos: mathx.V3(100, 1, 90),
	}
	return framePose{st: st, eye: st.Position.Add(mathx.V3(0, 3.2, 0))}
}
