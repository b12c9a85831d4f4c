package render

import (
	"fmt"
	"io"
	"math"

	"codsim/internal/mathx"
)

// The constants of the coverage arithmetic; the package doc ("Bit budget
// and guard band") has the argument that with them no int64 overflows, and
// TestBitBudget the check.
const (
	subBits = 8            // vertices snap to 1/256 pixel
	subOne  = 1 << subBits // one pixel, in sub-pixel units
	subHalf = subOne / 2   // a pixel centre's offset into its pixel
	guardPx = 1 << 22      // set-up culls on a screen coordinate at or past ±guardPx
	maxDim  = 1 << 14      // the largest framebuffer side

	// The clip-space guard planes sit 2⁻¹⁰ inside ±guardPx: what the clip's
	// own rounding adds to a vertex it makes stays within that margin.
	clipPx = guardPx - guardPx>>10
)

// Framebuffer is the render target: the color plane. Depth is kept a band
// at a time in the renderer (package doc, "Traversal").
type Framebuffer struct {
	W, H  int
	Color []RGB // row-major
}

// NewFramebuffer allocates a black framebuffer. A side may be at most 2¹⁴
// pixels, the size the coverage arithmetic is proved for; w*h then fits
// any int.
func NewFramebuffer(w, h int) (*Framebuffer, error) {
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim {
		return nil, fmt.Errorf("render: framebuffer %dx%d: sides must be in [1, %d]", w, h, maxDim)
	}
	return &Framebuffer{W: w, H: h, Color: make([]RGB, w*h)}, nil
}

// fill sets every element of s to v by copying what is filled already onto
// what is not, twice as much each time: memmove stores 32 bytes where a
// loop stores one element, and a band is small enough that the source is
// still in cache when it is read back.
func fill[T any](s []T, v T) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for n := 1; n < len(s); n *= 2 {
		copy(s[n:], s[:n])
	}
}

// At returns the color at (x, y); (0,0) is the top-left corner.
func (fb *Framebuffer) At(x, y int) RGB { return fb.Color[y*fb.W+x] }

// WritePPM dumps the framebuffer as a binary PPM image.
func (fb *Framebuffer) WritePPM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P6\n%d %d\n255\n", fb.W, fb.H); err != nil {
		return fmt.Errorf("render: ppm header: %w", err)
	}
	buf := make([]byte, 0, fb.W*fb.H*3)
	for _, c := range fb.Color {
		buf = append(buf, c.R, c.G, c.B)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("render: ppm pixels: %w", err)
	}
	return nil
}

// FrameStats counts the work of one Render call — the render-cost ledger
// behind the §4 frame-rate benchmarks (BenchmarkSurroundView*).
type FrameStats struct {
	Submitted  int // triangles submitted
	Culled     int // rejected: outside the frustum, backface, degenerate, no pixel centre in reach
	Clipped    int // triangles that needed near-plane or guard-band clipping
	Rasterized int // triangles actually scanned
	Pixels     int // pixels shaded (depth-test passes)
	Visited    int // pixels covered; Pixels/Visited is the depth-pass ratio, 1 − overdraw
}

// Instance places a mesh in the world.
type Instance struct {
	Mesh      *Mesh
	Transform mathx.Mat4
}

// Scene is everything one frame draws.
type Scene struct {
	Instances  []Instance
	LightDir   mathx.Vec3 // direction TOWARD the light (world space)
	Ambient    float64    // [0,1]
	Background RGB
}

// PolygonCount returns the total triangle count over all instances.
func (s *Scene) PolygonCount() int {
	n := 0
	for _, inst := range s.Instances {
		n += inst.Mesh.TriangleCount()
	}
	return n
}

// Renderer rasterizes scenes into its framebuffer. Not safe for concurrent
// use; each display LP owns one renderer (as each display PC owned one
// graphics card).
type Renderer struct {
	fb     *Framebuffer
	gx, gy float64    // the guard planes |x| ≤ gx·w, |y| ≤ gy·w
	clip   []clipVert // one instance's vertices in clip space, reused
	bin    []binTri   // the frame's set-up triangles in submission order, reused
	rows   int        // the height of a band
	depth  []float64  // the depth rows of the band being drawn; NDC, smaller = nearer

	// capture, which only this package's tests set, is a whole depth plane
	// that every band's depth rows are copied to when the band is done.
	capture []float64
}

// binTri is a set-up triangle waiting for the bands, with its colour.
type binTri struct {
	triSetup
	col RGB
}

// A band is as many rows as keep its colour and depth together near
// bandBytes: a fraction of a core's L2, so that the rows a band clears are
// still resident when it scans them, with room left for the bin.
const (
	bandBytes  = 96 << 10
	pixelBytes = 3 + 8 // an RGB and a float64 of depth
)

// NewRenderer builds a renderer with a w×h framebuffer.
func NewRenderer(w, h int) (*Renderer, error) {
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		return nil, err
	}
	rows := min(max(bandBytes/(w*pixelBytes), 1), h)
	// NDC ±g lands on the screen at (1 ± g)/2 of a side, so the farther
	// guard plane reaches (g + 1)/2 sides from the origin: clipPx pixels.
	return &Renderer{fb: fb,
		gx:    2*clipPx/float64(w) - 1,
		gy:    2*clipPx/float64(h) - 1,
		rows:  rows,
		depth: make([]float64, rows*w),
	}, nil
}

// Framebuffer exposes the render target (for probing and PPM dumps).
func (r *Renderer) Framebuffer() *Framebuffer { return r.fb }

// Retarget makes fb the render target of the frames that follow, so that
// one renderer can draw into several colour planes in turn. fb must have
// the renderer's size: the bands, their depth rows and the guard planes
// are cut to it.
func (r *Renderer) Retarget(fb *Framebuffer) {
	if fb.W != r.fb.W || fb.H != r.fb.H {
		panic(fmt.Sprintf("render: retarget a %dx%d renderer to a %dx%d framebuffer", r.fb.W, r.fb.H, fb.W, fb.H))
	}
	r.fb = fb
}

// Render draws the scene from the camera and returns the frame statistics:
// every triangle is set up and binned, then the bands are drawn (package
// doc, "Traversal").
func (r *Renderer) Render(scene *Scene, cam Camera) FrameStats {
	var stats FrameStats
	light := scene.light()
	vp := cam.ViewProj()

	for i := range scene.Instances {
		inst := &scene.Instances[i]
		mesh := inst.Mesh
		mvp := vp.MulM(inst.Transform)
		clip := r.toClip(&mvp, mesh.verts)
		for ti, tri := range mesh.tris {
			stats.Submitted++
			n := r.setUp(&clip[tri[0]], &clip[tri[1]], &clip[tri[2]], &stats)
			if n == 0 {
				continue
			}
			// Shaded only now: most triangles never reach the bin.
			r.shadeLast(n, flatShade(inst, ti, light, scene.Ambient))
		}
	}
	r.drawBands(scene.Background, &stats)
	return stats
}

// shadeLast gives the n triangles binned last their colour.
func (r *Renderer) shadeLast(n int, col RGB) {
	fan := r.bin[len(r.bin)-n:]
	for k := range fan {
		fan[k].col = col
	}
}

// drawBands draws the bin and empties it. The framebuffer is walked once,
// top to bottom, a band at a time: the band's colour rows are cleared, then
// every binned triangle that reaches the band scans its rows there, in
// submission order, against depth rows that exist for this band only — and
// are cleared only if a triangle arrives to test them.
func (r *Renderer) drawBands(bg RGB, stats *FrameStats) {
	w, h := r.fb.W, r.fb.H
	for first := 0; first < h; first += r.rows {
		last := min(first+r.rows, h) - 1
		fill(r.fb.Color[first*w:(last+1)*w], bg)
		depth := r.depth[:(last+1-first)*w]
		reached := false
		for i := range r.bin {
			t := &r.bin[i]
			if t.minY > last || t.minY > t.maxY {
				continue // starts below the band, or ended above it
			}
			if !reached {
				reached = true
				fill(depth, math.Inf(1))
			}
			r.scan(t, first, last, stats)
		}
		if r.capture != nil {
			if !reached {
				fill(depth, math.Inf(1))
			}
			copy(r.capture[first*w:], depth)
		}
	}
	r.bin = r.bin[:0]
}

// light is the unit vector towards the light, with a default for a scene
// that names none.
func (s *Scene) light() mathx.Vec3 {
	if l := s.LightDir.Normalize(); l.LenSq() != 0 {
		return l
	}
	return mathx.V3(0.3, 1, 0.2).Normalize()
}

// flatShade is triangle ti's colour under flat shading from its
// world-space face normal.
func flatShade(inst *Instance, ti int, light mathx.Vec3, ambient float64) RGB {
	mesh := inst.Mesh
	tri := mesh.tris[ti]
	w0 := inst.Transform.MulPoint(mesh.verts[tri[0]])
	w1 := inst.Transform.MulPoint(mesh.verts[tri[1]])
	w2 := inst.Transform.MulPoint(mesh.verts[tri[2]])
	normal := w1.Sub(w0).Cross(w2.Sub(w0)).Normalize()
	diff := math.Max(0, normal.Dot(light))
	shade := mathx.Clamp(ambient+float64((1-ambient)*diff), 0, 1)
	base := mesh.colors[ti]
	return RGB{
		R: uint8(float64(base.R) * shade),
		G: uint8(float64(base.G) * shade),
		B: uint8(float64(base.B) * shade),
	}
}

type clipVert struct {
	p mathx.Vec3 // clip-space x, y, z (pre-divide)
	w float64
}

// toClip transforms verts by m into the renderer's scratch: once per
// vertex, however many triangles share it. The sums are MulPointW's,
// term for term, with each product rounded before it is added.
func (r *Renderer) toClip(m *mathx.Mat4, verts []mathx.Vec3) []clipVert {
	if cap(r.clip) < len(verts) {
		r.clip = make([]clipVert, len(verts))
	}
	clip := r.clip[:len(verts)]
	for i := range verts {
		v := &verts[i]
		clip[i] = clipVert{
			p: mathx.Vec3{
				X: float64(m[0]*v.X) + float64(m[1]*v.Y) + float64(m[2]*v.Z) + m[3],
				Y: float64(m[4]*v.X) + float64(m[5]*v.Y) + float64(m[6]*v.Z) + m[7],
				Z: float64(m[8]*v.X) + float64(m[9]*v.Y) + float64(m[10]*v.Z) + m[11],
			},
			w: float64(m[12]*v.X) + float64(m[13]*v.Y) + float64(m[14]*v.Z) + m[15],
		}
	}
	return clip
}

// setUp takes one clip-space triangle through the frustum test, the clip
// and the screen set-up of its fan, and bins the survivors, colour to
// follow. It returns how many there are and books every reject.
func (r *Renderer) setUp(a, b, c *clipVert, stats *FrameStats) int {
	// Trivial frustum rejection: all vertices outside one plane.
	if allOutside(a, b, c) {
		stats.Culled++
		return 0
	}
	// Near-plane clip (w <= nearEps would break the divide) and guard-band
	// clip (a coordinate past the band would break the bit budget).
	var poly [maxClipVerts]clipVert
	m, clipped := r.clipTriangle(a, b, c, &poly)
	if m < 3 {
		stats.Culled++
		return 0
	}
	if clipped {
		stats.Clipped++
	}
	// Fan-triangulate the clipped polygon.
	n := 0
	for k := 1; k+1 < m; k++ {
		var t triSetup
		v, ok := project(r.fb, &poly[0], &poly[k], &poly[k+1])
		if ok && t.setup(r.fb, &v) {
			r.bin = append(r.bin, binTri{triSetup: t})
			n++
		} else {
			stats.Culled++
		}
	}
	stats.Rasterized += n
	return n
}

// allOutside reports whether all three vertices fall outside the same
// frustum plane (trivial reject).
func allOutside(a, b, c *clipVert) bool {
	return a.p.X > a.w && b.p.X > b.w && c.p.X > c.w ||
		a.p.X < -a.w && b.p.X < -b.w && c.p.X < -c.w ||
		a.p.Y > a.w && b.p.Y > b.w && c.p.Y > c.w ||
		a.p.Y < -a.w && b.p.Y < -b.w && c.p.Y < -c.w ||
		a.p.Z > a.w && b.p.Z > b.w && c.p.Z > c.w ||
		a.p.Z < -a.w && b.p.Z < -b.w && c.p.Z < -c.w
}

const (
	nearEps = 1e-5

	// The clip planes: near, then the four sides of the guard band. Each
	// can add one vertex to a convex polygon.
	clipPlanes   = 5
	maxClipVerts = 3 + clipPlanes
)

// planeDist is how far inside clip plane k the vertex lies: positive
// inside, and a NaN (which compares false) counts as outside.
func (r *Renderer) planeDist(k int, v *clipVert) float64 {
	switch k {
	case 0:
		return v.w - nearEps
	case 1:
		return float64(r.gx*v.w) - v.p.X
	case 2:
		return float64(r.gx*v.w) + v.p.X
	case 3:
		return float64(r.gy*v.w) - v.p.Y
	default:
		return float64(r.gy*v.w) + v.p.Y
	}
}

// clipTriangle clips triangle abc against w > nearEps and the guard band
// |x| < gx·w, |y| < gy·w (Sutherland–Hodgman, one plane after the other)
// into out and returns how many vertices it wrote. A plane crosses the
// boundary of a convex polygon twice and so adds one vertex at most;
// vertices that rounding or a NaN have scattered can cross it more often,
// and a polygon that would outgrow out that way is dropped.
func (r *Renderer) clipTriangle(a, b, c *clipVert, out *[maxClipVerts]clipVert) (n int, clipped bool) {
	out[0], out[1], out[2] = *a, *b, *c
	n = 3
	for k := 0; k < clipPlanes; k++ {
		var dist [maxClipVerts]float64
		inside, crossings := 0, 0
		prevIn := r.planeDist(k, &out[n-1]) > 0
		for i := 0; i < n; i++ {
			dist[i] = r.planeDist(k, &out[i])
			in := dist[i] > 0
			if in {
				inside++
			}
			if in != prevIn {
				crossings++
			}
			prevIn = in
		}
		if inside == n {
			continue
		}
		if inside == 0 || inside+crossings > maxClipVerts {
			return 0, true
		}
		clipped = true
		in, m := *out, n
		n = 0
		for i := 0; i < m; i++ {
			j := (i + 1) % m
			cur, next, dc, dn := &in[i], &in[j], dist[i], dist[j]
			if dc > 0 {
				out[n] = *cur
				n++
			}
			if (dc > 0) != (dn > 0) {
				t := dc / (dc - dn)
				out[n] = clipVert{
					p: mathx.Vec3{
						X: cur.p.X + float64((next.p.X-cur.p.X)*t),
						Y: cur.p.Y + float64((next.p.Y-cur.p.Y)*t),
						Z: cur.p.Z + float64((next.p.Z-cur.p.Z)*t),
					},
					w: cur.w + float64((next.w-cur.w)*t),
				}
				if k == 0 {
					out[n].w = nearEps
				}
				n++
			}
		}
	}
	return n, clipped
}

// edgeStep walks the column where one edge crosses the rows' pixel
// centres, exactly: q = ⌊n/d⌋ and r = n − q·d for a numerator n that
// changes by the same amount from each row to the next.
type edgeStep struct {
	q, r   int64 // the current row's quotient and remainder, 0 ≤ r < d
	dq, dr int64 // quotient and remainder of the row-to-row change
	d      int64
}

// newEdgeStep starts a walk at ⌊n/d⌋ with n growing by dn a row; d > 0.
func newEdgeStep(n, dn, d int64) edgeStep {
	s := edgeStep{d: d}
	s.q, s.r = floorDiv(n, d)
	s.dq, s.dr = floorDiv(dn, d)
	return s
}

// next moves the walk down one row.
func (s *edgeStep) next() {
	s.q += s.dq
	s.r += s.dr
	if s.r >= s.d {
		s.r -= s.d
		s.q++
	}
}

// floorDiv is ⌊n/d⌋ and the remainder in [0, d), for d > 0.
func floorDiv(n, d int64) (q, r int64) {
	q, r = n/d, n%d
	if r < 0 {
		q--
		r += d
	}
	return q, r
}

// fixVert is a screen-space vertex snapped to the sub-pixel grid.
type fixVert struct {
	x, y int64 // in 1/256 pixel; (0,0) is the top-left corner of pixel (0,0)
	z    float64
}

// project takes a clip-space triangle to the sub-pixel grid: perspective
// divide to NDC, then to screen, then the snap. ok is false when a
// coordinate is at or past the guard band's ±guardPx, or a NaN: the
// comparison is made on the float, which no conversion has garbled yet.
func project(fb *Framebuffer, a, b, c *clipVert) (v [3]fixVert, ok bool) {
	w, h := float64(fb.W), float64(fb.H)
	for i, cv := range [3]*clipVert{a, b, c} {
		inv := 1 / cv.w
		x := float64(float64(cv.p.X*inv)+1) * 0.5 * w
		y := float64(1-float64(cv.p.Y*inv)) * 0.5 * h
		if !(math.Abs(x) < guardPx && math.Abs(y) < guardPx) {
			return v, false
		}
		// x*subOne is exact, so the sum rounds once whether fused or not.
		v[i] = fixVert{int64(math.Floor(x*subOne + 0.5)), int64(math.Floor(y*subOne + 0.5)), float64(cv.p.Z * inv)}
	}
	return v, true
}

// triSetup is one screen-space triangle ready to scan: the rows and
// columns its pixel centres can lie in, the walks of its edges down those
// rows, and its depth plane. A scan that stops at a band's last row leaves
// minY and the walks at the row the next band resumes from.
type triSetup struct {
	minY, maxY int
	minX, maxX int

	// The span of a row is max(minX, left.q, third.q) … min(maxX, right.q)
	// when the third edge bounds on the left, and max(minX, left.q) …
	// min(maxX, right.q, third.q) when it bounds on the right.
	left, right, third edgeStep
	thirdLeft          bool

	// Depth at the centre of pixel (px, py) is zC + zB·py + zA·px.
	zA, zB, zC float64
}

// setup readies t for the triangle with snapped vertices v and reports
// whether there is anything to scan: false for a backface, a degenerate
// triangle and one with no pixel centre in reach.
func (t *triSetup) setup(fb *Framebuffer, v *[3]fixVert) bool {
	// Twice the signed area: negative for front faces (counter-clockwise in
	// screen space after the Y flip).
	area := (v[1].x-v[0].x)*(v[2].y-v[0].y) - (v[2].x-v[0].x)*(v[1].y-v[0].y)
	if area >= 0 { // backface or degenerate
		return false
	}

	// The rows and columns whose pixel centres lie in [min, max) of the
	// vertices. The far end is open because a triangle's lowest and
	// rightmost points are on a bottom or a right edge, or where two edges
	// meet of which one is, and the fill rule gives those to the
	// neighbour. This is also all that a horizontal edge decides: the
	// rows from the top edge down are in, the bottom edge's row is out.
	t.minY = int(max((min(v[0].y, v[1].y, v[2].y)+subHalf-1)>>subBits, 0))
	t.maxY = int(min((max(v[0].y, v[1].y, v[2].y)+subHalf-1)>>subBits-1, int64(fb.H-1)))
	t.minX = int(max((min(v[0].x, v[1].x, v[2].x)+subHalf-1)>>subBits, 0))
	t.maxX = int(min((max(v[0].x, v[1].x, v[2].x)+subHalf-1)>>subBits-1, int64(fb.W-1)))
	if t.minY > t.maxY || t.minX > t.maxX {
		return false
	}

	// The directed edge a→b has the edge function
	// E(x, y) = (b.y − a.y)·(x − a.x) − (b.x − a.x)·(y − a.y), positive
	// inside a front face. Along a row it changes by s = 256·(b.y − a.y) a
	// column, so with e its value at the centre of column 0 an edge with
	// s > 0 bounds the row on the left, E ≥ 0 from column ⌈−e/s⌉ on, and
	// one with s < 0 on the right, E > 0 up to column ⌊(e − 1)/−s⌋: a
	// centre on a left edge is in, one on a right edge is the neighbour's.
	// Of a front face's three edges at least one does each; the third does
	// either, or is horizontal and bounds no column.
	t.third, t.thirdLeft = edgeStep{q: math.MinInt64, d: 1}, true
	cy := int64(t.minY)<<subBits + subHalf
	lefts, rights := 0, 0
	for i := range v {
		a, b := &v[i], &v[(i+1)%3]
		ea, eb := b.y-a.y, a.x-b.x
		e := ea*(subHalf-a.x) + eb*(cy-a.y)
		s, de := ea<<subBits, eb<<subBits // e grows by de from a row to the next
		switch {
		case s > 0:
			walk := newEdgeStep(-e+s-1, -de, s)
			if lefts++; lefts == 1 {
				t.left = walk
			} else {
				t.third, t.thirdLeft = walk, true
			}
		case s < 0:
			walk := newEdgeStep(e-1, de, -s)
			if rights++; rights == 1 {
				t.right = walk
			} else {
				t.third, t.thirdLeft = walk, false
			}
		}
	}
	t.zA, t.zB, t.zC = depthPlane(v, area)
	return true
}

// depthPlane is the plane through the three vertices' depths, as the
// coefficients of z(px, py) = zC + zB·py + zA·px at pixel centres. Every
// product is converted before it is added to, so that no port may fuse the
// two into one rounding.
func depthPlane(v *[3]fixVert, area int64) (zA, zB, zC float64) {
	dx1, dy1 := float64(v[1].x-v[0].x), float64(v[1].y-v[0].y)
	dx2, dy2 := float64(v[2].x-v[0].x), float64(v[2].y-v[0].y)
	dz1, dz2 := v[1].z-v[0].z, v[2].z-v[0].z
	// Per sub-pixel unit in x and in y.
	a := (float64(dz1*dy2) - float64(dz2*dy1)) / float64(area)
	b := (float64(dz2*dx1) - float64(dz1*dx2)) / float64(area)
	zC = v[0].z + float64(a*float64(subHalf-v[0].x)) + float64(b*float64(subHalf-v[0].y))
	return a * subOne, b * subOne, zC
}

// depthAt is the depth plane at the centre of pixel (px, py), written the
// one way everything evaluates it: a function of the triangle and the
// pixel alone — not of where a span starts — and not accumulated along
// the row, which would round differently and wait on the previous pixel.
func depthAt(zRow, zA float64, px int) float64 { return zRow + float64(zA*float64(px)) }

// depthRow is the part of depthAt that is fixed along row py.
func depthRow(zC, zB float64, py int) float64 { return zC + float64(zB*float64(py)) }

// scan rasterizes a set-up triangle's rows in the band first … last: per
// row, the columns from the last left bound to the first right bound are
// covered, all of them and no others, so the pixel loop only interpolates
// depth and tests it.
func (r *Renderer) scan(t *binTri, first, last int, stats *FrameStats) {
	w, col := r.fb.W, t.col
	left, right, third := t.left, t.right, t.third
	zA := t.zA
	visited, pixels := 0, 0
	end := min(t.maxY, last)
	for py := t.minY; py <= end; py++ {
		lo, hi := max(left.q, int64(t.minX)), min(right.q, int64(t.maxX))
		if t.thirdLeft {
			lo = max(lo, third.q)
		} else {
			hi = min(hi, third.q)
		}
		left.next()
		right.next()
		third.next()
		if lo > hi {
			continue
		}

		zRow := depthRow(t.zC, t.zB, py)
		depth := r.depth[(py-first)*w+int(lo) : (py-first)*w+int(hi)+1]
		color := r.fb.Color[py*w+int(lo) : py*w+int(hi)+1]
		color = color[:len(depth)] // same length already; lets color[i] go unchecked
		visited += len(depth)
		for i := range depth {
			if z := depthAt(zRow, zA, int(lo)+i); z < depth[i] {
				depth[i] = z
				color[i] = col
				pixels++
			}
		}
	}
	t.left, t.right, t.third, t.minY = left, right, third, end+1
	stats.Visited += visited
	stats.Pixels += pixels
}
