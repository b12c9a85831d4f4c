// Package render is the software 3-D pipeline standing in for the TNT2
// M64 accelerator cards of the paper's display computers (§4): model/view/
// projection transform, frustum and backface culling, near-plane clipping,
// and z-buffered flat-shaded rasterization into an in-memory framebuffer.
//
// Because every polygon is transformed and rasterized on the CPU, frame
// cost scales with scene complexity exactly the way the paper's headline
// measurement (16 fps at 3235 polygons across three synchronized displays)
// depends on — which is what the EXP-1 benchmarks exercise.
//
// # The span rule
//
// A triangle's pixels are those of its clamped bounding box whose three
// barycentric coordinates, computed from two edge functions and
// w2 = 1 − w0 − w1, are all ≥ 0. On the paper's scene that is two pixels
// in five of the boxes, so the scan does not walk the box: per row it
// solves the three conditions for the columns they can admit and
// evaluates only those.
//
// Along a row each condition is linear in x. Its value at the box's first
// pixel centre is the edge function there, formed as the pixel loop forms
// it; its slope is a difference of two vertex ys, fixed per triangle. (The
// third condition is the one the loop tests, w0 + w1 ≤ 1, that is
// g0 + g1 ≥ area — not a third edge function, which would round
// differently.) The solve admits g + slope·Δx ≤ slack, not ≤ 0. slack is
// 2⁻⁴⁵·rx·ry, rx and ry the extents of box and vertices together: every
// product in an edge function is at most rx·ry, so rounding moves the
// function by a few ulps of that, and 2⁻⁴⁵ is 256 ulps. A pixel the loop
// accepts therefore lies inside the solved interval up to the solve's own
// rounding, which is far below the one pixel of padding each end then
// gets. An edge parallel to the rows has slope 0 and bounds nothing; a NaN
// compares false and bounds nothing; where rx·ry is so large that the
// products could overflow, slack is +Inf and the rows run the whole box.
// The span is always inside the box, so the worst a loose bound costs is
// time.
//
// # The exactness contract
//
// The colour plane, the depth plane and every FrameStats field but
// Visited are, bit for bit, those of the loop that evaluates every pixel
// of the box; reference_test.go keeps that loop, TestRasterMatchesReference
// and FuzzRasterTriangle compare against it, and testdata/frames.golden
// pins 108 frames it rendered before this kernel existed. Inside a span
// the per-pixel expressions are that loop's: the same operations on the
// same operands in the same order. A subexpression may be hoisted out of
// a loop when it does not depend on the loop variable — y_i − fy out of the
// row, the clip-space transform out of the triangles sharing a vertex, the
// shade out of the triangles that are culled — because the same operation
// on the same operands yields the same float wherever it runs. Nothing is
// evaluated incrementally (w0 += step rounds differently from the product
// it replaces), re-associated, or replaced by an algebraically equal
// form. The one departure is where the old loop had no defined result: a
// bounding box holding a NaN, or a bound no int can hold, made it index
// the planes out of range or walk up from the smallest int; such a
// triangle is now culled.
//
// The golden is written and checked on amd64 only. The Go specification
// lets an implementation fuse x*y + z into one rounding; the amd64 port
// (at its default GOAMD64=v1) does not, others may.
package render

import (
	"fmt"
	"math"

	"codsim/internal/mathx"
)

// RGB is an 8-bit color.
type RGB struct {
	R, G, B uint8
}

// Mesh is an indexed triangle mesh with one flat color per triangle.
// Meshes are immutable after construction and shared between instances.
type Mesh struct {
	verts  []mathx.Vec3
	tris   [][3]int
	colors []RGB
}

// NewMesh builds a mesh. colors must have one entry per triangle, or be a
// single entry applied to all triangles.
func NewMesh(verts []mathx.Vec3, tris [][3]int, colors []RGB) (*Mesh, error) {
	if len(verts) == 0 || len(tris) == 0 {
		return nil, fmt.Errorf("render: empty mesh")
	}
	for _, t := range tris {
		for _, idx := range t {
			if idx < 0 || idx >= len(verts) {
				return nil, fmt.Errorf("render: vertex index %d out of range", idx)
			}
		}
	}
	cs := colors
	switch len(colors) {
	case len(tris):
	case 1:
		cs = make([]RGB, len(tris))
		for i := range cs {
			cs[i] = colors[0]
		}
	default:
		return nil, fmt.Errorf("render: %d colors for %d triangles", len(colors), len(tris))
	}
	return &Mesh{
		verts:  append([]mathx.Vec3(nil), verts...),
		tris:   append([][3]int(nil), tris...),
		colors: append([]RGB(nil), cs...),
	}, nil
}

// TriangleCount returns the number of faces.
func (m *Mesh) TriangleCount() int { return len(m.tris) }

// Box builds an axis-aligned box of half-extents (hx, hy, hz) centered at
// the origin, 12 triangles.
func Box(hx, hy, hz float64, color RGB) *Mesh {
	verts := []mathx.Vec3{
		{X: -hx, Y: -hy, Z: -hz}, {X: hx, Y: -hy, Z: -hz},
		{X: hx, Y: hy, Z: -hz}, {X: -hx, Y: hy, Z: -hz},
		{X: -hx, Y: -hy, Z: hz}, {X: hx, Y: -hy, Z: hz},
		{X: hx, Y: hy, Z: hz}, {X: -hx, Y: hy, Z: hz},
	}
	// Counter-clockwise when viewed from outside.
	quads := [6][4]int{
		{1, 0, 3, 2}, // back  (-Z) seen from -Z
		{4, 5, 6, 7}, // front (+Z)
		{0, 4, 7, 3}, // left  (-X)
		{5, 1, 2, 6}, // right (+X)
		{3, 7, 6, 2}, // top   (+Y)
		{0, 1, 5, 4}, // bottom(-Y)
	}
	tris := make([][3]int, 0, 12)
	for _, q := range quads {
		tris = append(tris, [3]int{q[0], q[1], q[2]}, [3]int{q[0], q[2], q[3]})
	}
	m, err := NewMesh(verts, tris, []RGB{color})
	if err != nil {
		panic(err) // unreachable: geometry above is always valid
	}
	return m
}

// Cylinder builds a Y-axis cylinder (radius, halfHeight) with `sides`
// lateral faces.
func Cylinder(radius, halfHeight float64, sides int, color RGB) *Mesh {
	if sides < 3 {
		sides = 3
	}
	verts := make([]mathx.Vec3, 0, 2*sides+2)
	for i := 0; i < sides; i++ {
		a := 2 * math.Pi * float64(i) / float64(sides)
		s, c := math.Sincos(a)
		verts = append(verts,
			mathx.V3(radius*c, -halfHeight, radius*s),
			mathx.V3(radius*c, halfHeight, radius*s))
	}
	bottomC := len(verts)
	verts = append(verts, mathx.V3(0, -halfHeight, 0))
	topC := len(verts)
	verts = append(verts, mathx.V3(0, halfHeight, 0))

	tris := make([][3]int, 0, 4*sides)
	for i := 0; i < sides; i++ {
		b0, t0 := 2*i, 2*i+1
		b1, t1 := 2*((i+1)%sides), 2*((i+1)%sides)+1
		tris = append(tris,
			[3]int{b0, t1, t0}, // winding outward
			[3]int{b0, b1, t1},
			[3]int{topC, t0, t1},
			[3]int{bottomC, b1, b0},
		)
	}
	m, err := NewMesh(verts, tris, []RGB{color})
	if err != nil {
		panic(err) // unreachable
	}
	return m
}
