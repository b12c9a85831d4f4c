// Package render is the software 3-D pipeline standing in for the TNT2
// M64 accelerator cards of the paper's display computers (§4): model/view/
// projection transform, frustum and backface culling, near-plane clipping,
// and z-buffered flat-shaded rasterization into an in-memory framebuffer.
//
// Because every polygon is transformed and rasterized on the CPU, frame
// cost scales with scene complexity exactly the way the paper's headline
// measurement (16 fps at 3235 polygons across three synchronized displays)
// depends on — which is what BenchmarkSurroundView* and the fed_exam
// workload exercise.
//
// # The coverage contract
//
// Coverage is decided in integers, the way hardware rasterizers decide it,
// so that it is exact by construction and not by an argument about
// rounding.
//
// Snapping. After the perspective divide a vertex's screen x and y are
// rounded to the nearest 1/256 pixel. From there on a triangle is three
// points of that grid: twice its signed area is an int64, and zero or
// positive (clockwise on the screen, or flat) is culled.
//
// Fill rule. The directed edge a→b has the edge function
// E(p) = (b.y − a.y)·(p.x − a.x) − (b.x − a.x)·(p.y − a.y), positive inside
// a front face. A pixel is covered when at its centre no E is negative and
// every E that is zero belongs to an edge that owns its points: a left
// edge (the inside lies towards +x) or a top edge (horizontal, the inside
// below). Two triangles that share an edge see it with opposite signs, so
// a centre on it belongs to exactly one of them: a mesh has no cracks and
// no double hits, and moving a triangle by whole pixels moves its coverage
// by as much.
//
// Spans. Along a row E changes by s = 256·(b.y − a.y) a column, so an edge
// with s > 0 admits the columns from ⌈−e/s⌉ on and one with s < 0 those up
// to ⌊(e − 1)/−s⌋, e being E at the centre of column 0; from one row to the
// next e changes by a constant too. Set-up divides once per edge, keeping
// quotient and remainder, and the scan carries both down the rows by
// addition: the first and last covered column of every row, exactly, with
// no division in the row loop and no coverage test, padding or slack in
// the pixel loop. Rows and columns are those whose centres lie in
// [min, max) of the vertices; the open end is the fill rule again, for the
// bottom and right edges and for the corners where two edges meet, and it
// is all a horizontal edge has to decide.
//
// Bit budget and guard band. 8 sub-pixel bits and a guard band of 2²²
// pixels keep a snapped coordinate below 2³⁰; a framebuffer side is at
// most 2¹⁴ pixels (NewFramebuffer refuses more), so a pixel centre is
// below 2²². A difference of two vertices is then below 2³¹, a pixel
// centre less a vertex below 2³⁰ + 2²², every product in E or in the area
// below 2⁶², every E and the area below 2⁶³, and the numerators set-up
// divides (E plus at most 2³⁹) fit as well: no int64 in set-up or scan can
// overflow. One more bit of guard band would break it. What keeps vertices
// inside the band is a clip in clip space, next to the near clip and by
// the same Sutherland–Hodgman pass: against |x| ≤ g·w and |y| ≤ g·w with g
// chosen per framebuffer so that the planes sit 2⁻¹⁰ inside the band —
// room for the clip's own rounding. It is no corner case: a near clip at
// w = 10⁻⁵ throws vertices millions of pixels out several times a frame.
// What guarantees the budget is not the clip but a comparison after the
// divide: a coordinate at or past ±2²² pixels, or a NaN, culls the
// triangle before anything is converted to an integer.
//
// Depth. z at a pixel centre is the plane through the three snapped
// vertices, z(px, py) = zC + zB·py + zA·px — a function of the triangle and
// the pixel alone, not of where a span, a band or a tile starts, and not
// accumulated along the row (z += zA rounds differently and is a
// loop-carried add). The depth test is z < stored, triangles are drawn in
// submission order, shading is flat.
//
// Traversal. A frame is drawn in two passes. The first takes every
// triangle through the clip and set-up and appends the survivors, each
// with its colour, to a bin that keeps submission order and is reused from
// frame to frame. The second walks the framebuffer once, top to bottom, in
// bands of as many rows as keep a band's colour and depth near 96 KiB —
// ⌊96 KiB / 11·w⌋ rows for a width of w pixels and one at least: 13 rows at
// 640 pixels, one at 2¹⁴, computed and not configured. For each band the
// colour rows are cleared, then every binned triangle that reaches the
// band scans its rows there, in submission order, its edge walks resuming
// where the band above left them. That order is the whole argument that
// the picture cannot change: coverage and z are functions of the triangle
// and the pixel alone, a pixel lies in one band, and the triangles that
// cover it arrive there in the order they were submitted — so every pixel
// sees the sequence of depth tests it would see if each triangle were
// scanned whole, and the ledger counts the same pixels. What changes is
// where memory is touched: a band is cleared, scanned and left while it is
// in cache, where a clear of the whole frame followed by a scan of the
// whole frame streamed 3.3 MB out and pulled it back in. Depth needs no
// plane for this: the renderer keeps one band's depth rows, cleared when a
// band's first triangle arrives (in a band no triangle reaches, not at
// all) and forgotten with the band. A whole depth plane exists only as a
// test capture: this package's tests have each band's depth rows copied
// out to one (Renderer.capture), and that is the plane the reference, the
// fuzz target and the golden compare.
//
// Rounding. The language lets a port fuse x*y + z into one rounding (arm64
// does, amd64 does not) and defines an explicit float64(…) conversion as a
// rounding that prevents it. From the clip-space
// transform on — toClip, the clip, the divide, the snap, the depth plane
// and its evaluation — every product is converted before it is added to,
// so given the same matrices and vertices the planes come out the same,
// bit for bit, on every GOARCH. What builds those matrices and vertices
// and computes a face's shade (internal/mathx, the scene builder, the
// terrain generator, math.Sincos) makes no such promise.
//
// What holds it. reference_test.go draws the same snapped triangles by
// brute force — every pixel centre of the bounding box against the three
// edge functions and the fill rule as stated above, products checked
// against 2⁶² — and TestRasterMatchesReference,
// TestRandomClipTrianglesMatchReference and FuzzRasterTriangle require
// colour, depth and every FrameStats field to agree bit for bit.
// coverage_test.go has what is true by construction (watertight pairs,
// fans and strips; coverage shifting with the triangle; the budget at the
// guard band's corners) and holds the clip to an oracle without one;
// band_test.go renders the same frames in bands of 1, 2, 7, 13 and 480 rows
// and requires one picture, and the fuzz target and its bulk run take the
// band height as an input, so that band edges cut vertices, horizontal
// edges and one-row triangles. testdata/frames.golden pins 108 frames'
// colour and depth planes and ledgers. It is version 2: version 1 was the
// float bounding-box loop this kernel replaced, from which it differs in
// 0–78 of a frame's 307 200 colour pixels, all of them next to an edge
// (CHANGES.md, PR 19). The
// golden may be re-cut only by a change that means to alter what is
// computed — the snapping grid, the fill rule, the depth expression, the
// shading — and says so; a change to how spans are found, to the clip, to
// set-up or to the traversal order (bands, tiles) must leave it as it is,
// and cannot help doing so if it keeps to the rules above.
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
