package render

import (
	"math"
	"testing"

	"codsim/internal/mathx"
)

// What integer coverage makes true by construction, and the float loop
// never was: meshes are watertight, coverage moves with the triangle, the
// arithmetic stays inside its bit budget at the guard band's corners — and
// the clip that keeps it there does not move what is drawn.

// pt is a point on the sub-pixel grid.
type pt struct{ x, y int64 }

// cross is the edge function of a→b at p: positive where a front face
// whose boundary runs a→b has its inside.
func cross(a, b, p pt) int64 { return (b.y-a.y)*(p.x-a.x) - (b.x-a.x)*(p.y-a.y) }

// front orders a triangle so that it faces the viewer (counter-clockwise
// on the screen, where y grows downwards); ok is false for a degenerate
// one.
func front(a, b, c pt) (tri [3]pt, ok bool) {
	switch s := cross(a, b, c); {
	case s > 0:
		return [3]pt{a, b, c}, true
	case s < 0:
		return [3]pt{a, c, b}, true
	}
	return tri, false
}

// hitRig counts, per pixel, how many triangles of a mesh cover it.
type hitRig struct {
	r    *Renderer
	hits []int
}

func newHitRig(tb testing.TB, w, h int) *hitRig {
	tb.Helper()
	r, err := NewRenderer(w, h)
	if err != nil {
		tb.Fatal(err)
	}
	return &hitRig{r: r, hits: make([]int, w*h)}
}

// draw scans each triangle alone onto a cleared framebuffer and adds the
// pixels it wrote to the hit counts.
func (rig *hitRig) draw(tris [][3]pt) {
	clear(rig.hits)
	fb := rig.r.fb
	for _, tri := range tris {
		var v [3]fixVert
		for i, p := range tri {
			v[i] = fixVert{x: p.x, y: p.y, z: 0.5}
		}
		var ts triSetup
		var stats FrameStats
		if ts.setup(fb, &v) {
			rig.r.bin = append(rig.r.bin, binTri{ts, RGB{R: 255}})
		}
		rig.r.drawBands(RGB{}, &stats)
		for i, c := range fb.Color {
			if c != (RGB{}) {
				rig.hits[i]++
			}
		}
	}
}

// centre is the centre of pixel (px, py).
func centre(px, py int) pt { return pt{int64(px)<<subBits + subHalf, int64(py)<<subBits + subHalf} }

// within reports where p lies in triangle tri: 1 strictly inside, 0 on the
// boundary, -1 outside.
func within(tri [3]pt, p pt) int {
	lowest := int64(1)
	for i := range tri {
		lowest = min(lowest, cross(tri[i], tri[(i+1)%3], p))
	}
	return int(max(lowest, -1))
}

// onOpenSegment reports whether p lies on the segment a–b, ends excluded.
func onOpenSegment(a, b, p pt) bool {
	if cross(a, b, p) != 0 || p == a || p == b {
		return false
	}
	return min(a.x, b.x) <= p.x && p.x <= max(a.x, b.x) && min(a.y, b.y) <= p.y && p.y <= max(a.y, b.y)
}

// checkWatertight requires of a mesh's hit counts: no pixel centre hit
// twice; exactly one hit strictly inside a triangle, on an edge two
// triangles share and on a vertex the mesh surrounds; none outside.
func (rig *hitRig) checkWatertight(t *testing.T, tris [][3]pt, shared [][2]pt, surrounded []pt) {
	t.Helper()
	fb := rig.r.fb
	for py := 0; py < fb.H; py++ {
		for px := 0; px < fb.W; px++ {
			p, hits := centre(px, py), rig.hits[py*fb.W+px]
			where := -1
			for _, tri := range tris {
				where = max(where, within(tri, p))
			}
			inside := where == 1
			for _, e := range shared {
				inside = inside || onOpenSegment(e[0], e[1], p)
			}
			for _, v := range surrounded {
				inside = inside || p == v
			}
			switch {
			case hits > 1:
				t.Fatalf("pixel (%d,%d) hit %d times by %v", px, py, hits, tris)
			case inside && hits != 1:
				t.Fatalf("pixel (%d,%d) is inside %v and was not hit", px, py, tris)
			case where < 0 && hits != 0:
				t.Fatalf("pixel (%d,%d) is outside %v and was hit", px, py, tris)
			}
		}
	}
}

// gridPoint draws a point in and a little around a size-pixel square: on a
// pixel centre, on a pixel corner or anywhere on the sub-pixel grid, a
// third each, so that edges through pixel centres are the rule.
func gridPoint(rng *testRNG, size int) pt {
	coord := func() int64 {
		px := int64(rng.next()%uint64(size+8)) - 4
		switch rng.next() % 3 {
		case 0:
			return px<<subBits + subHalf
		case 1:
			return px << subBits
		}
		return px<<subBits + int64(rng.next()%subOne)
	}
	return pt{coord(), coord()}
}

// TestSharedEdgeWatertight: two triangles on opposite sides of a common
// edge cover every pixel centre of their union exactly once.
func TestSharedEdgeWatertight(t *testing.T) {
	const size = 24
	rig := newHitRig(t, size, size)
	rng := testRNG(256)
	for n := 0; n < 3000; {
		a, b, c, d := gridPoint(&rng, size), gridPoint(&rng, size), gridPoint(&rng, size), gridPoint(&rng, size)
		sc, sd := cross(a, b, c), cross(a, b, d)
		if sc == 0 || sd == 0 || (sc > 0) == (sd > 0) {
			continue
		}
		n++
		t1, _ := front(a, b, c)
		t2, _ := front(a, b, d)
		tris := [][3]pt{t1, t2}
		rig.draw(tris)
		rig.checkWatertight(t, tris, [][2]pt{{a, b}}, nil)
	}
}

// TestFanAndStripWatertight: a closed fan around a centre vertex — itself
// on a pixel centre half the time — and a strip between two rails cover
// every pixel centre of their union exactly once.
func TestFanAndStripWatertight(t *testing.T) {
	const size = 24
	rig := newHitRig(t, size, size)
	rng := testRNG(65536)
	for n := 0; n < 400; n++ {
		// Fan: spokes at increasing angles around o, so that consecutive
		// triangles share a spoke and nothing else.
		o := gridPoint(&rng, size)
		if n%2 == 0 {
			o = centre(4+int(rng.next()%(size-8)), 4+int(rng.next()%(size-8)))
		}
		spokes := 3 + int(rng.next()%6)
		rim := make([]pt, 0, spokes)
		for k := 0; k < spokes; k++ {
			angle := (float64(k) + rng.float(0.1, 0.9)) * 2 * math.Pi / float64(spokes)
			reach := rng.float(2, size) * subOne
			rim = append(rim, pt{o.x + int64(reach*math.Cos(angle)), o.y + int64(reach*math.Sin(angle))})
		}
		var tris [][3]pt
		var shared [][2]pt
		convex := true
		for k := range rim {
			tri, ok := front(o, rim[k], rim[(k+1)%spokes])
			// A sector of 180° or more would fold the fan over itself.
			convex = convex && ok && cross(o, rim[k], rim[(k+1)%spokes]) < 0
			tris = append(tris, tri)
			shared = append(shared, [2]pt{o, rim[k]})
		}
		if convex {
			rig.draw(tris)
			rig.checkWatertight(t, tris, shared, []pt{o})
		}

		// Strip: vertices alternate between an upper and a lower rail,
		// both running left to right.
		var strip []pt
		x := int64(-2 * subOne)
		for k, count := 0, 4+int(rng.next()%6); k < count; k++ {
			x += int64(rng.next()%(5*subOne)) + 1
			y := int64(rng.next() % (size / 2 * subOne))
			if k%2 == 1 {
				y += size / 2 * subOne
			}
			if rng.next()%2 == 0 {
				// A pixel centre, or the middle of a pixel's upper side.
				x, y = (x+subHalf-1)&^(subHalf-1), y&^(subHalf-1)|subHalf
			}
			strip = append(strip, pt{x, y})
		}
		tris, shared = tris[:0], shared[:0]
		ok := true
		for k := 0; k+2 < len(strip); k++ {
			tri, nondegenerate := front(strip[k], strip[k+1], strip[k+2])
			ok = ok && nondegenerate
			tris = append(tris, tri)
			if k > 0 {
				shared = append(shared, [2]pt{strip[k], strip[k+1]})
			}
		}
		if ok {
			rig.draw(tris)
			rig.checkWatertight(t, tris, shared, nil)
		}
	}
}

// TestTopLeftRule pins which way the fill rule leans: a square whose
// corners are pixel centres owns the centres on its top and left sides and
// not those on its bottom and right sides.
func TestTopLeftRule(t *testing.T) {
	rig := newHitRig(t, 8, 8)
	a, b, c, d := centre(2, 2), centre(5, 2), centre(5, 5), centre(2, 5)
	t1, _ := front(a, b, c)
	t2, _ := front(a, c, d)
	rig.draw([][3]pt{t1, t2})
	for py := 0; py < 8; py++ {
		for px := 0; px < 8; px++ {
			want := 0
			if px >= 2 && px < 5 && py >= 2 && py < 5 {
				want = 1
			}
			if got := rig.hits[py*8+px]; got != want {
				t.Errorf("pixel (%d,%d) hit %d times, want %d", px, py, got, want)
			}
		}
	}
}

// TestCoverageShiftsWithTriangle: moving a triangle's snapped vertices by
// a whole number of pixels moves its coverage mask by exactly that much.
func TestCoverageShiftsWithTriangle(t *testing.T) {
	const size = 32
	rig := newHitRig(t, size, size)
	moved := make([]int, size*size)
	rng := testRNG(8)
	for n := 0; n < 3000; n++ {
		tri, ok := front(gridPoint(&rng, size), gridPoint(&rng, size), gridPoint(&rng, size))
		if !ok {
			continue
		}
		dx, dy := int(rng.next()%17)-8, int(rng.next()%17)-8
		rig.draw([][3]pt{tri})
		copy(moved, rig.hits)
		for i := range tri {
			tri[i].x -= int64(dx) << subBits
			tri[i].y -= int64(dy) << subBits
		}
		rig.draw([][3]pt{tri})
		// moved holds the mask dx, dy further on than rig.hits does.
		for py := max(0, -dy); py < min(size, size-dy); py++ {
			for px := max(0, -dx); px < min(size, size-dx); px++ {
				if here, there := rig.hits[py*size+px], moved[(py+dy)*size+px+dx]; here != there {
					t.Fatalf("triangle %v: pixel (%d,%d) covered %d, (%d,%d) of the triangle %d,%d px further on %d", tri, px, py, here, px+dx, py+dy, dx, dy, there)
				}
			}
		}
	}
}

// TestBitBudget states the budget of the coverage arithmetic once as
// arithmetic and then exercises it: triangles with vertices on the guard
// band's corners and as close to the framebuffer as the grid allows, on
// the widest and the tallest framebuffer NewFramebuffer accepts, scan as
// the reference draws them — whose every product is checked against 2⁶².
func TestBitBudget(t *testing.T) {
	coord := uint64(guardPx) << subBits // snapped coordinates stay below this
	pixel := uint64(maxDim) << subBits  // and pixel centres below this
	if widest := 2 * coord * (coord + pixel); widest >= 1<<62 {
		t.Errorf("an edge product can reach %d, past 2^62", widest)
	}
	if clip := uint64(clipPx); clip >= guardPx || clip < maxDim {
		t.Errorf("clip band %d px must hold a %d px framebuffer and lie inside the guard band %d px", clip, maxDim, guardPx)
	}

	const far = guardPx<<subBits - 1
	corners := [4]pt{{-far, -far}, {far, -far}, {far, far}, {-far, far}}
	for _, dim := range [][2]int{{maxDim, 3}, {3, maxDim}, {64, 48}} {
		rig := newClipTriangleRig(t, dim[0], dim[1])
		w, h := int64(dim[0])<<subBits, int64(dim[1])<<subBits
		near := []pt{{-1, -1}, {w + 1, -1}, {w + 1, h + 1}, {-1, h + 1}, {w / 2, h / 2}, {subHalf, subHalf}, {w - subHalf, h - subHalf}}
		check := func(a, b, c pt) {
			t.Helper()
			tri, ok := front(a, b, c)
			if !ok {
				return
			}
			var v [3]fixVert
			for i, p := range tri {
				v[i] = fixVert{x: p.x, y: p.y, z: float64(i) / 4}
			}
			var got, want FrameStats
			var ts triSetup
			rig.ref.refClear(RGB{})
			if ts.setup(rig.r.fb, &v) {
				got.Rasterized++
				rig.r.bin = append(rig.r.bin, binTri{ts, RGB{G: 255}})
			}
			rig.r.drawBands(RGB{}, &got)
			drew, err := rig.ref.refTriangle(&v, RGB{G: 255}, &want)
			if err != nil {
				t.Fatalf("%dx%d, triangle %v: %v", dim[0], dim[1], tri, err)
			}
			if drew {
				want.Rasterized++
			}
			if got != want {
				t.Fatalf("%dx%d, triangle %v: ledger %+v, reference %+v", dim[0], dim[1], tri, got, want)
			}
			if err := samePlanes(rig.r, rig.ref); err != nil {
				t.Fatalf("%dx%d, triangle %v: %v", dim[0], dim[1], tri, err)
			}
		}
		for i, a := range corners {
			for _, b := range corners[i+1:] {
				for _, c := range corners {
					check(a, b, c)
				}
				for _, c := range near {
					check(a, b, c)
				}
			}
			for j, b := range near {
				for _, c := range near[j+1:] {
					check(a, b, c)
				}
			}
		}

		// Through the clip: a triangle that covers the screen from 10¹²
		// away comes back as a fan on the guard band and still covers it.
		cv := [3]clipVert{{mathx.V3(-1e12, -1e12, 0.5), 1}, {mathx.V3(1e12, -1e12, 0.5), 1}, {mathx.V3(0, 1e12, 0.5), 1}}
		if err := rig.check(cv); err != nil {
			t.Fatalf("%dx%d: %v", dim[0], dim[1], err)
		}
		if bg := countBackground(rig.r.fb); bg != 0 {
			t.Errorf("%dx%d: a triangle around the whole screen left %d pixels uncovered", dim[0], dim[1], bg)
		}
	}
}

func countBackground(fb *Framebuffer) int {
	n := 0
	for _, c := range fb.Color {
		if c == (RGB{}) {
			n++
		}
	}
	return n
}

// TestClipKeepsCoverage holds the whole geometry stage — near clip, guard
// clip, divide, snap — to an oracle that has none of them: in homogeneous
// screen coordinates (x, y, w) a point p is inside the part of triangle
// abc in front of the eye exactly when det[p b c], det[a p c] and det[a b p]
// all have the sign of det[a b c]. Pixel centres within a pixel of an edge
// line are not compared; everything else must agree, for triangles with
// vertices far outside the guard band and behind the eye.
func TestClipKeepsCoverage(t *testing.T) {
	const w, h = 64, 48
	r, err := NewRenderer(w, h)
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG(22)
	mag := rng.mag
	drawn, clipped := 0, 0
	for n := 0; n < 4000; n++ {
		var cv [3]clipVert
		for k := range cv {
			vw := 1.0
			switch n % 4 {
			case 1: // some vertices behind the eye
				vw = mag(-1, 1)
			case 2: // close to the eye: the divide throws them far out
				vw = math.Abs(mag(-4, 0))
			}
			far := 2.0
			if n%4 != 0 && rng.next()%2 == 0 {
				far = 7 // NDC up to ±10⁷: the guard planes sit near ±1.3·10⁵
			}
			cv[k] = clipVert{mathx.V3(mag(-1, far)*math.Abs(vw), mag(-1, far)*math.Abs(vw), rng.float(-1, 1)*math.Abs(vw)), vw}
		}
		// Homogeneous screen coordinates: the divide by w gives pixels.
		var m [3][3]float64
		for k, v := range cv {
			m[k] = [3]float64{(v.p.X + v.w) * 0.5 * w, (v.w - v.p.Y) * 0.5 * h, v.w}
		}
		det3 := func(a, b, c [3]float64) float64 {
			return a[0]*(b[1]*c[2]-b[2]*c[1]) - a[1]*(b[0]*c[2]-b[2]*c[0]) + a[2]*(b[0]*c[1]-b[1]*c[0])
		}
		det := det3(m[0], m[1], m[2])
		if math.Abs(det) < 1e-3 {
			continue
		}

		var stats FrameStats
		r.shadeLast(r.setUp(&cv[0], &cv[1], &cv[2], &stats), RGB{B: 255})
		r.drawBands(RGB{}, &stats)
		clipped += stats.Clipped
		if stats.Visited > 0 {
			drawn++
		}
		for py := 0; py < h; py++ {
			for px := 0; px < w; px++ {
				p := [3]float64{float64(px) + 0.5, float64(py) + 0.5, 1}
				// The three determinants are affine in p; their gradients
				// give the distance to each edge line in pixels.
				inside, clear := det < 0, true // a front face has det < 0, as its screen area is
				for e := 0; e < 3; e++ {
					q := m
					q[e] = p
					f := det3(q[0], q[1], q[2]) / det
					q[e] = [3]float64{p[0] + 1, p[1], 1}
					fx := det3(q[0], q[1], q[2])/det - f
					q[e] = [3]float64{p[0], p[1] + 1, 1}
					fy := det3(q[0], q[1], q[2])/det - f
					inside = inside && f > 0
					clear = clear && math.Abs(f) > math.Hypot(fx, fy)
				}
				if got := r.fb.At(px, py) != (RGB{}); clear && got != inside {
					t.Fatalf("triangle %d %v: pixel (%d,%d) drawn = %v, the homogeneous test says %v", n, cv, px, py, got, inside)
				}
			}
		}
	}
	if drawn < 500 || clipped < 500 {
		t.Errorf("only %d triangles drew and %d were clipped: the test does not exercise the clip", drawn, clipped)
	}
}

// TestEdgeStepIsFloorDivision: the row-to-row walk of an edge's bound is
// the floor division it replaces, on every row, for numerators and steps
// of either sign — and for the rows where the remainder lands exactly on
// the divisor, which a triangle meets once in a hundred thousand rows.
func TestEdgeStepIsFloorDivision(t *testing.T) {
	rng := testRNG(39)
	signed := func(bits uint) int64 { return int64(rng.next()>>(64-bits)) - 1<<(bits-1) }
	for n := 0; n < 20000; n++ {
		d := int64(rng.next()>>(64-4-rng.next()%36)) + 1
		num, step := signed(62), signed(40)
		switch n % 4 {
		case 1: // small numbers, where exact multiples are common
			d, num, step = d%7+1, num%50, step%20
		case 2: // the second row's remainder is exactly d before the carry
			num, step = num-num%d+d-1, step-step%d+1
		}
		walk := newEdgeStep(num, step, d)
		for row := int64(0); row < 40; row++ {
			if walk.r < 0 || walk.r >= d || walk.q*d+walk.r != num+row*step {
				t.Fatalf("⌊(%d + %d·%d)/%d⌋: walk at %d rem %d", num, row, step, d, walk.q, walk.r)
			}
			walk.next()
		}
	}
}
