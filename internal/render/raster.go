package render

import (
	"fmt"
	"io"
	"math"

	"codsim/internal/mathx"
)

// Framebuffer is the render target: a color plane plus a depth plane.
type Framebuffer struct {
	W, H  int
	Color []RGB     // row-major
	Depth []float64 // NDC depth; smaller = nearer
}

// NewFramebuffer allocates a cleared framebuffer.
func NewFramebuffer(w, h int) (*Framebuffer, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("render: framebuffer %dx%d", w, h)
	}
	fb := &Framebuffer{W: w, H: h,
		Color: make([]RGB, w*h),
		Depth: make([]float64, w*h),
	}
	fb.Clear(RGB{})
	return fb, nil
}

// Clear fills the color plane and resets depth to the far plane.
func (fb *Framebuffer) Clear(bg RGB) {
	fill(fb.Color, bg)
	fill(fb.Depth, math.Inf(1))
}

// fill sets every element of s to v: the first block in a loop, the rest
// by copying that block, which stays in L1 while memmove stores 32 bytes
// where the loop stores one element.
func fill[T any](s []T, v T) {
	n := min(len(s), 512)
	for i := range s[:n] {
		s[i] = v
	}
	for i := n; i < len(s); i += n {
		copy(s[i:], s[:n])
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
// behind the EXP-1 fps experiments.
type FrameStats struct {
	Submitted  int // triangles submitted
	Culled     int // rejected by frustum or backface tests
	Clipped    int // triangles that needed near-plane clipping
	Rasterized int // triangles actually scanned
	Pixels     int // pixels shaded (depth-test passes)
	Visited    int // pixels the scan evaluated; Pixels/Visited is its useful-work ratio
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
	fb   *Framebuffer
	clip []clipVert  // one instance's vertices in clip space, reused
	tris [2]triSetup // the set-up fan of the triangle being drawn
}

// NewRenderer builds a renderer with a w×h framebuffer.
func NewRenderer(w, h int) (*Renderer, error) {
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		return nil, err
	}
	return &Renderer{fb: fb}, nil
}

// Framebuffer exposes the render target (for probing and PPM dumps).
func (r *Renderer) Framebuffer() *Framebuffer { return r.fb }

// Render draws the scene from the camera and returns the frame statistics.
func (r *Renderer) Render(scene *Scene, cam Camera) FrameStats {
	var stats FrameStats
	r.fb.Clear(scene.Background)

	light := scene.LightDir.Normalize()
	if light.LenSq() == 0 {
		light = mathx.V3(0.3, 1, 0.2).Normalize()
	}
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
			// Flat shading from the world-space face normal, for the
			// triangles that reach the scan only.
			w0 := inst.Transform.MulPoint(mesh.verts[tri[0]])
			w1 := inst.Transform.MulPoint(mesh.verts[tri[1]])
			w2 := inst.Transform.MulPoint(mesh.verts[tri[2]])
			normal := w1.Sub(w0).Cross(w2.Sub(w0)).Normalize()
			diff := math.Max(0, normal.Dot(light))
			shade := mathx.Clamp(scene.Ambient+(1-scene.Ambient)*diff, 0, 1)
			base := mesh.colors[ti]
			col := RGB{
				R: uint8(float64(base.R) * shade),
				G: uint8(float64(base.G) * shade),
				B: uint8(float64(base.B) * shade),
			}
			for k := 0; k < n; k++ {
				r.scan(&r.tris[k], col, &stats)
			}
		}
	}
	return stats
}

type clipVert struct {
	p mathx.Vec3 // clip-space x, y, z (pre-divide)
	w float64
}

// toClip transforms verts by m into the renderer's scratch: once per
// vertex, however many triangles share it. The sums are MulPointW's,
// term for term.
func (r *Renderer) toClip(m *mathx.Mat4, verts []mathx.Vec3) []clipVert {
	if cap(r.clip) < len(verts) {
		r.clip = make([]clipVert, len(verts))
	}
	clip := r.clip[:len(verts)]
	for i := range verts {
		v := &verts[i]
		clip[i] = clipVert{
			p: mathx.Vec3{
				X: m[0]*v.X + m[1]*v.Y + m[2]*v.Z + m[3],
				Y: m[4]*v.X + m[5]*v.Y + m[6]*v.Z + m[7],
				Z: m[8]*v.X + m[9]*v.Y + m[10]*v.Z + m[11],
			},
			w: m[12]*v.X + m[13]*v.Y + m[14]*v.Z + m[15],
		}
	}
	return clip
}

// setUp takes one clip-space triangle through the frustum test, the near
// clip and the screen set-up of its fan, leaving the survivors in r.tris.
// It returns how many there are to scan and books every reject.
func (r *Renderer) setUp(a, b, c *clipVert, stats *FrameStats) int {
	// Trivial frustum rejection: all vertices outside one plane.
	if allOutside(a, b, c) {
		stats.Culled++
		return 0
	}
	// Near-plane clip (w <= nearEps would break the divide).
	var poly [4]clipVert
	m, clipped := clipNear(a, b, c, &poly)
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
		if r.tris[n].init(r.fb, &poly[0], &poly[k], &poly[k+1]) {
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

const nearEps = 1e-5

// clipNear clips triangle abc against the w > nearEps half-space
// (Sutherland–Hodgman on the near plane) into out, which one plane can
// grow to four vertices at most, and returns how many it wrote.
func clipNear(a, b, c *clipVert, out *[4]clipVert) (n int, clipped bool) {
	if a.w > nearEps && b.w > nearEps && c.w > nearEps {
		out[0], out[1], out[2] = *a, *b, *c
		return 3, false
	}
	in := [3]*clipVert{a, b, c}
	for i, cur := range in {
		next := in[(i+1)%3]
		cIn, nIn := cur.w > nearEps, next.w > nearEps
		if cIn {
			out[n] = *cur
			n++
		}
		if cIn != nIn {
			t := (nearEps - cur.w) / (next.w - cur.w)
			out[n] = clipVert{p: cur.p.Lerp(next.p, t), w: nearEps}
			n++
		}
	}
	return n, true
}

// triSetup is one screen-space triangle ready to scan: the vertices, the
// clamped bounding box and the per-edge terms of the span solve, computed
// once so that the rows only multiply and compare.
type triSetup struct {
	x0, y0, z0 float64
	x1, y1, z1 float64
	x2, y2, z2 float64
	area       float64 // signed, negative for the front faces that get here
	invArea    float64

	minY, maxY int
	fminX      float64 // the box's first and last pixel columns
	fmaxX      float64

	// Span solve. e0, e1, e2 are x0, x1, x2 relative to the first column's
	// pixel centre; inv0, inv1, inv2 the reciprocal x-slopes of the three
	// barycentric conditions (0: the condition does not bound x); slack
	// is what rounding can add to an edge function anywhere in the box.
	e0, e1, e2       float64
	inv0, inv1, inv2 float64
	slack            float64
}

// toScreen is the perspective divide to NDC, then to screen.
func toScreen(v *clipVert, w, h float64) (x, y, z float64) {
	inv := 1 / v.w
	return (v.p.X*inv + 1) * 0.5 * w, (1 - v.p.Y*inv) * 0.5 * h, v.p.Z * inv
}

// init sets t up for clip-space triangle abc and reports whether there is
// anything to scan: false for a backface, a degenerate triangle and one
// whose bounding box misses the screen.
func (t *triSetup) init(fb *Framebuffer, a, b, c *clipVert) bool {
	w, h := float64(fb.W), float64(fb.H)
	x0, y0, z0 := toScreen(a, w, h)
	x1, y1, z1 := toScreen(b, w, h)
	x2, y2, z2 := toScreen(c, w, h)

	// Signed area: cull backfaces (counter-clockwise in screen space after
	// the Y flip means the area is negative for front faces).
	area := (x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)
	if area >= -1e-12 { // backface or degenerate
		return false
	}

	// The box is clamped and compared as floats, so that a coordinate no
	// int can hold (or a NaN) rejects the triangle instead of converting
	// to garbage.
	xlo, xhi := math.Min(x0, math.Min(x1, x2)), math.Max(x0, math.Max(x1, x2))
	ylo, yhi := math.Min(y0, math.Min(y1, y2)), math.Max(y0, math.Max(y1, y2))
	fminX, fmaxX := math.Max(0, math.Floor(xlo)), math.Min(w-1, math.Ceil(xhi))
	fminY, fmaxY := math.Max(0, math.Floor(ylo)), math.Min(h-1, math.Ceil(yhi))
	if !(fminX <= fmaxX && fminY <= fmaxY) {
		return false
	}

	*t = triSetup{
		x0: x0, y0: y0, z0: z0,
		x1: x1, y1: y1, z1: z1,
		x2: x2, y2: y2, z2: z2,
		area: area, invArea: 1 / area,
		minY: int(fminY), maxY: int(fmaxY),
		fminX: fminX, fmaxX: fmaxX,
	}

	// Span solve (package doc, "The span rule"). Every |x_i − fx| the scan
	// can form is at most rx and every |y_i − fy| at most ry, so an edge
	// function is off its real value by a few ulps of rx·ry; 2⁻⁴⁵ is 256
	// ulps of 1. Past 2⁹⁰⁰ the products could overflow: no spans then,
	// the rows run the whole box.
	rx := math.Max(xhi, fmaxX+1) - math.Min(xlo, fminX)
	ry := math.Max(yhi, fmaxY+1) - math.Min(ylo, fminY)
	t.slack = math.Inf(1)
	if rd := rx * ry; rd < 0x1p900 {
		t.slack = 0x1p-45 * rd
	}
	fx := fminX + 0.5
	t.e0, t.e1, t.e2 = x0-fx, x1-fx, x2-fx
	t.inv0, t.inv1, t.inv2 = invSlope(y1-y2), invSlope(y2-y0), invSlope(y0-y1)
	return true
}

// invSlope is 1/b, or 0 for an edge function that does not change along a
// row and so bounds no x.
func invSlope(b float64) float64 {
	if b == 0 {
		return 0
	}
	return 1 / b
}

// narrow tightens the column interval [lo, hi] by one barycentric
// condition: g is its edge function at the box's first pixel centre (which
// is column base), inv the reciprocal of its x-slope. The condition holds
// only where g + slope·(fx − centre) ≤ slack; the bound lands a pixel
// outside the solution, which is the padding. A NaN compares false and
// leaves the interval alone.
func narrow(lo, hi, base, g, slack, inv float64) (float64, float64) {
	x := base + (slack-g)*inv
	if inv > 0 {
		if x+1 < hi {
			hi = x + 1
		}
	} else if inv < 0 {
		if x > lo {
			lo = x
		}
	}
	return lo, hi
}

// scan rasterizes a set-up triangle. Per row it solves the three
// barycentric conditions for the columns they can admit and runs the
// per-pixel expressions only there; see the package doc for why the
// pixels it writes, and the values it writes, are exactly those of a scan
// over the whole bounding box.
func (r *Renderer) scan(t *triSetup, col RGB, stats *FrameStats) {
	fb := r.fb
	x0, x1, x2 := t.x0, t.x1, t.x2
	z0, z1, z2 := t.z0, t.z1, t.z2
	invArea := t.invArea
	visited, pixels := 0, 0
	for py := t.minY; py <= t.maxY; py++ {
		fy := float64(py) + 0.5
		dy0, dy1, dy2 := t.y0-fy, t.y1-fy, t.y2-fy

		// The edge functions at the first column, as the pixel loop below
		// forms them; the third condition, w2 ≥ 0, is w0 + w1 ≤ 1.
		g0 := t.e1*dy2 - t.e2*dy1
		g1 := t.e2*dy0 - t.e0*dy2
		g2 := t.area - (g0 + g1)
		flo, fhi := narrow(t.fminX, t.fmaxX, t.fminX, g0, t.slack, t.inv0)
		flo, fhi = narrow(flo, fhi, t.fminX, g1, t.slack, t.inv1)
		flo, fhi = narrow(flo, fhi, t.fminX, g2, t.slack, t.inv2)
		if !(flo <= fhi) {
			continue
		}
		lo, hi := int(flo), int(fhi)
		visited += hi - lo + 1

		rowBase := py * fb.W
		depth := fb.Depth[rowBase+lo : rowBase+hi+1]
		color := fb.Color[rowBase+lo : rowBase+hi+1]
		color = color[:len(depth)] // same length already; lets color[i] go unchecked
		for i := range depth {
			fx := float64(lo+i) + 0.5
			// Barycentric coordinates via edge functions.
			w0 := ((x1-fx)*dy2 - (x2-fx)*dy1) * invArea
			w1 := ((x2-fx)*dy0 - (x0-fx)*dy2) * invArea
			w2 := 1 - w0 - w1
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			z := w0*z0 + w1*z1 + w2*z2
			if z < depth[i] {
				depth[i] = z
				color[i] = col
				pixels++
			}
		}
	}
	stats.Visited += visited
	stats.Pixels += pixels
}
