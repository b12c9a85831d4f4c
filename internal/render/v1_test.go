package render

import (
	"math"

	"codsim/internal/mathx"
)

// The v1 rasterizer: Render and rasterTriangle as they stood when
// testdata/frames.golden v1 was written — every vertex transformed per
// triangle, two float edge functions evaluated at every pixel of the
// bounding box, near clip only. It is here for one commit, as the oracle
// the fixed-point kernel's visual change is measured against.

// v1Render is the reference Render.
func (r *Renderer) v1Render(scene *Scene, cam Camera) FrameStats {
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
			r.v1Triangle(&cv, col, &stats)
		}
	}
	return stats
}

// v1Triangle takes one clip-space triangle through the reference's
// frustum test, near clip and scan.
func (r *Renderer) v1Triangle(cv *[3]clipVert, col RGB, stats *FrameStats) {
	// Trivial frustum rejection: all vertices outside one plane.
	if allOutside(&cv[0], &cv[1], &cv[2]) {
		stats.Culled++
		return
	}

	// Near-plane clip (w <= nearEps would break the divide).
	var poly [4]clipVert
	n, clipped := v1ClipNear(&cv[0], &cv[1], &cv[2], &poly)
	if n < 3 {
		stats.Culled++
		return
	}
	if clipped {
		stats.Clipped++
	}

	// Fan-triangulate the clipped polygon and rasterize.
	for k := 1; k+1 < n; k++ {
		if r.v1RasterTriangle(poly[0], poly[k], poly[k+1], col, stats) {
			stats.Rasterized++
		} else {
			stats.Culled++
		}
	}
}

// v1RasterTriangle scan-converts one clip-space triangle; reports whether
// it produced fragments (false = backface or degenerate). Visited is the
// one addition: the bounding-box pixel count the span kernel is measured
// against.
func (r *Renderer) v1RasterTriangle(a, b, c clipVert, col RGB, stats *FrameStats) bool {
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

// v1ClipNear clips triangle abc against the w > nearEps half-space
// (Sutherland–Hodgman on the near plane) into out, which one plane can
// grow to four vertices at most, and returns how many it wrote.
func v1ClipNear(a, b, c *clipVert, out *[4]clipVert) (n int, clipped bool) {
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
