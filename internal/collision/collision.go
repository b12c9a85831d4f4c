// Package collision implements the multi-level collision detection the
// dynamics module uses to "effectively perceive" collisions (§3.6, citing
// Moore & Wilhelms [10]). A candidate pair descends three levels, each
// cheaper test pruning the next:
//
//	L1: bounding-sphere overlap   — one distance comparison
//	L2: world AABB overlap        — six comparisons
//	L3: exact mesh test           — edge/triangle intersections
//
// A brute-force mode that jumps straight to L3 for every pair exists solely
// as the baseline of the §3.6 ablation (BenchmarkCollisionBruteForce,
// TestDescentStatsPinned).
//
// An object pays for a level only when a pair reaches it. SetPose computes
// the world sphere centre, all L1 needs. L2 needs the world AABB: for a
// rotated object that is the box around its transformed vertices, built
// (with the world triangles) the first time a pair gets past L1 after a
// pose change. L3 needs the world triangles, built on first use likewise.
//
// Most poses only translate — the hook and cargo proxies move every tick
// and never turn. When the rotation is the identity quaternion, bit for
// bit, SetPose takes the AABB as pos + the mesh's local box and L3 the
// triangles as pos + local vertex, with no quaternion products. The
// results are the very floats the rotation would have produced: rotating
// v by the identity returns v (a -0 component comes back +0, which shift
// reproduces), and x ↦ pos+x is monotonic in floating point, so the
// extremes of the translated vertices are the translated extremes.
package collision

import (
	"fmt"
	"math"

	"codsim/internal/mathx"
)

// Triangle is one face of a collision mesh, in local coordinates.
type Triangle struct {
	A, B, C mathx.Vec3
}

// Mesh is an immutable triangle soup with a precomputed local bounding
// sphere and box.
type Mesh struct {
	tris   []Triangle
	center mathx.Vec3
	radius float64
	min    mathx.Vec3
	max    mathx.Vec3
}

// NewMesh builds a mesh from triangles (copied).
func NewMesh(tris []Triangle) (*Mesh, error) {
	if len(tris) == 0 {
		return nil, fmt.Errorf("collision: empty mesh")
	}
	m := &Mesh{tris: append([]Triangle(nil), tris...)}
	m.min = mathx.V3(math.Inf(1), math.Inf(1), math.Inf(1))
	m.max = m.min.Neg()
	for _, t := range m.tris {
		for _, v := range []mathx.Vec3{t.A, t.B, t.C} {
			if !v.IsFinite() {
				return nil, fmt.Errorf("collision: non-finite vertex %v", v)
			}
			m.min = m.min.Min(v)
			m.max = m.max.Max(v)
		}
	}
	m.center = m.min.Add(m.max).Scale(0.5)
	for _, t := range m.tris {
		for _, v := range []mathx.Vec3{t.A, t.B, t.C} {
			if r := v.Sub(m.center).Len(); r > m.radius {
				m.radius = r
			}
		}
	}
	return m, nil
}

// Triangles returns the mesh faces (shared slice; do not mutate).
func (m *Mesh) Triangles() []Triangle { return m.tris }

// TriangleCount returns the number of faces.
func (m *Mesh) TriangleCount() int { return len(m.tris) }

// Object is a mesh instance placed in the world. Update its pose with
// SetPose; the package doc says what is computed when.
type Object struct {
	ID   string
	mesh *Mesh

	pos mathx.Vec3
	rot mathx.Quat

	shifted   bool       // rot is the identity: the world mesh is pos + local
	center    mathx.Vec3 // world bounding-sphere centre, set by SetPose
	worldMin  mathx.Vec3 // world AABB: set by SetPose when shifted,
	worldMax  mathx.Vec3 // by buildTris otherwise
	trisStale bool
	worldTris []Triangle
}

// NewObject places mesh at the origin with identity rotation.
func NewObject(id string, mesh *Mesh) *Object {
	o := &Object{ID: id, mesh: mesh}
	o.SetPose(mathx.Vec3{}, mathx.QuatIdentity())
	return o
}

// SetPose moves the object to pos with rotation rot.
func (o *Object) SetPose(pos mathx.Vec3, rot mathx.Quat) {
	o.pos = pos
	o.rot = rot
	o.trisStale = true
	o.shifted = rot.W == 1 && math.Float64bits(rot.X)|math.Float64bits(rot.Y)|math.Float64bits(rot.Z) == 0
	if o.shifted {
		o.center = shift(pos, o.mesh.center)
		o.worldMin = shift(pos, o.mesh.min)
		o.worldMax = shift(pos, o.mesh.max)
	} else {
		o.center = pos.Add(rot.Rotate(o.mesh.center))
	}
}

// shift is pos.Add(QuatIdentity().Rotate(v)) without the quaternion
// products: rotating by the identity returns v with any -0 component
// turned into +0, which is what adding zero does.
func shift(pos, v mathx.Vec3) mathx.Vec3 { return pos.Add(v.Add(mathx.Vec3{})) }

// Pos returns the object's position.
func (o *Object) Pos() mathx.Vec3 { return o.pos }

// aabb returns the world bounding box, transforming a rotated mesh if the
// pose changed since it last was.
func (o *Object) aabb() (min, max mathx.Vec3) {
	if o.trisStale && !o.shifted {
		o.buildTris()
	}
	return o.worldMin, o.worldMax
}

// tris returns the world triangles, transforming the mesh if the pose
// changed since it last was.
func (o *Object) tris() []Triangle {
	if o.trisStale {
		o.buildTris()
	}
	return o.worldTris
}

// buildTris transforms the mesh into world space; for a rotated mesh it
// also takes the AABB of the transformed vertices.
func (o *Object) buildTris() {
	if cap(o.worldTris) < len(o.mesh.tris) {
		o.worldTris = make([]Triangle, len(o.mesh.tris))
	}
	o.worldTris = o.worldTris[:len(o.mesh.tris)]
	o.trisStale = false
	if o.shifted {
		for i, t := range o.mesh.tris {
			o.worldTris[i] = Triangle{A: shift(o.pos, t.A), B: shift(o.pos, t.B), C: shift(o.pos, t.C)}
		}
		return
	}
	o.worldMin = mathx.V3(math.Inf(1), math.Inf(1), math.Inf(1))
	o.worldMax = o.worldMin.Neg()
	for i, t := range o.mesh.tris {
		wt := Triangle{
			A: o.pos.Add(o.rot.Rotate(t.A)),
			B: o.pos.Add(o.rot.Rotate(t.B)),
			C: o.pos.Add(o.rot.Rotate(t.C)),
		}
		o.worldTris[i] = wt
		for _, v := range [3]mathx.Vec3{wt.A, wt.B, wt.C} {
			o.worldMin = o.worldMin.Min(v)
			o.worldMax = o.worldMax.Max(v)
		}
	}
}

// Contact reports one detected collision between two objects.
type Contact struct {
	A, B  string     // object IDs
	Point mathx.Vec3 // approximate contact point (world)
}

// Stats counts how far pairs descended the level hierarchy: the §3.6
// ablation's measure, which TestDescentStatsPinned pins.
type Stats struct {
	Pairs     int64 // pairs examined
	L1Reject  int64 // rejected by bounding spheres
	L2Reject  int64 // rejected by AABBs
	L3Tests   int64 // exact mesh tests executed
	Contacts  int64 // contacts found
	TriChecks int64 // edge/triangle primitive tests at L3
}

// World owns a set of objects and finds contacts between them.
type World struct {
	objects []*Object
	// BruteForce skips L1/L2 pruning (ablation baseline only).
	BruteForce bool
	stats      Stats
}

// Add registers an object.
func (w *World) Add(o *Object) { w.objects = append(w.objects, o) }

// Objects returns the registered objects (shared slice; do not mutate).
func (w *World) Objects() []*Object { return w.objects }

// Stats returns cumulative detection statistics.
func (w *World) Stats() Stats { return w.stats }

// ResetStats clears the cumulative statistics.
func (w *World) ResetStats() { w.stats = Stats{} }

// FindContacts tests every object pair and returns the contacts found this
// call.
func (w *World) FindContacts() []Contact {
	var out []Contact
	for i := 0; i < len(w.objects); i++ {
		for j := i + 1; j < len(w.objects); j++ {
			if c, hit := w.CheckPair(w.objects[i], w.objects[j]); hit {
				out = append(out, c)
			}
		}
	}
	return out
}

// CheckPair runs the multi-level test on one pair.
func (w *World) CheckPair(a, b *Object) (Contact, bool) {
	w.stats.Pairs++
	if !w.BruteForce {
		// Level 1: bounding spheres.
		if r := a.mesh.radius + b.mesh.radius; a.center.Sub(b.center).LenSq() > r*r {
			w.stats.L1Reject++
			return Contact{}, false
		}
		// Level 2: world AABBs.
		minA, maxA := a.aabb()
		minB, maxB := b.aabb()
		if !aabbOverlap(minA, maxA, minB, maxB) {
			w.stats.L2Reject++
			return Contact{}, false
		}
	}
	// Level 3: exact mesh intersection.
	w.stats.L3Tests++
	if p, hit := w.meshIntersect(a, b); hit {
		w.stats.Contacts++
		return Contact{A: a.ID, B: b.ID, Point: p}, true
	}
	return Contact{}, false
}

func aabbOverlap(minA, maxA, minB, maxB mathx.Vec3) bool {
	return minA.X <= maxB.X && maxA.X >= minB.X &&
		minA.Y <= maxB.Y && maxA.Y >= minB.Y &&
		minA.Z <= maxB.Z && maxA.Z >= minB.Z
}

// meshIntersect reports whether any edge of one mesh pierces a triangle of
// the other (the Moore–Wilhelms edge/face test, both directions).
func (w *World) meshIntersect(a, b *Object) (mathx.Vec3, bool) {
	ta, tb := a.tris(), b.tris()
	if p, hit := w.edgesVsTris(ta, tb); hit {
		return p, true
	}
	return w.edgesVsTris(tb, ta)
}

func (w *World) edgesVsTris(from, against []Triangle) (mathx.Vec3, bool) {
	for _, t := range from {
		edges := [3][2]mathx.Vec3{{t.A, t.B}, {t.B, t.C}, {t.C, t.A}}
		for _, e := range edges {
			for _, tb := range against {
				w.stats.TriChecks++
				if p, hit := segmentTriangle(e[0], e[1], tb); hit {
					return p, true
				}
			}
		}
	}
	return mathx.Vec3{}, false
}

// segmentTriangle intersects segment p0→p1 with triangle t
// (Möller–Trumbore, restricted to the segment's parameter range).
func segmentTriangle(p0, p1 mathx.Vec3, t Triangle) (mathx.Vec3, bool) {
	const eps = 1e-12
	dir := p1.Sub(p0)
	e1 := t.B.Sub(t.A)
	e2 := t.C.Sub(t.A)
	h := dir.Cross(e2)
	det := e1.Dot(h)
	if det > -eps && det < eps {
		return mathx.Vec3{}, false // parallel
	}
	inv := 1 / det
	s := p0.Sub(t.A)
	u := s.Dot(h) * inv
	if u < 0 || u > 1 {
		return mathx.Vec3{}, false
	}
	q := s.Cross(e1)
	v := dir.Dot(q) * inv
	if v < 0 || u+v > 1 {
		return mathx.Vec3{}, false
	}
	k := e2.Dot(q) * inv
	if k < 0 || k > 1 {
		return mathx.Vec3{}, false // beyond the segment
	}
	return p0.Add(dir.Scale(k)), true
}
