package collision

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"codsim/internal/mathx"
)

// recompute transforms o's mesh from scratch the way every pose was
// transformed before bounds followed the pose: each vertex rotated, then
// translated; the AABB taken over the results; the sphere centre likewise.
func recompute(o *Object) (center, min, max mathx.Vec3, tris []Triangle) {
	center = o.pos.Add(o.rot.Rotate(o.mesh.center))
	min = mathx.V3(math.Inf(1), math.Inf(1), math.Inf(1))
	max = min.Neg()
	for _, t := range o.mesh.tris {
		wt := Triangle{
			A: o.pos.Add(o.rot.Rotate(t.A)),
			B: o.pos.Add(o.rot.Rotate(t.B)),
			C: o.pos.Add(o.rot.Rotate(t.C)),
		}
		tris = append(tris, wt)
		for _, v := range [3]mathx.Vec3{wt.A, wt.B, wt.C} {
			min = min.Min(v)
			max = max.Max(v)
		}
	}
	return center, min, max, tris
}

func vecBits(v mathx.Vec3) [3]uint64 {
	return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
}

// checkPose compares o's cached world data with recompute, bit for bit.
// Which caches it reads (and so builds) is the caller's choice: the lazy
// paths must be right whatever was or was not queried before.
func checkPose(t *testing.T, o *Object, readAABB, readTris bool) {
	t.Helper()
	center, min, max, tris := recompute(o)
	if vecBits(o.center) != vecBits(center) {
		t.Fatalf("%s pos %v rot %v: centre %v, recomputed %v", o.ID, o.pos, o.rot, o.center, center)
	}
	if readAABB {
		gotMin, gotMax := o.aabb()
		if vecBits(gotMin) != vecBits(min) || vecBits(gotMax) != vecBits(max) {
			t.Fatalf("%s pos %v rot %v: AABB %v..%v, recomputed %v..%v", o.ID, o.pos, o.rot, gotMin, gotMax, min, max)
		}
	}
	if readTris {
		got := o.tris()
		for i := range tris {
			if vecBits(got[i].A) != vecBits(tris[i].A) || vecBits(got[i].B) != vecBits(tris[i].B) || vecBits(got[i].C) != vecBits(tris[i].C) {
				t.Fatalf("%s pos %v rot %v: triangle %d = %v, recomputed %v", o.ID, o.pos, o.rot, i, got[i], tris[i])
			}
		}
	}
}

func randPos(r *rand.Rand) mathx.Vec3 {
	coord := func() float64 {
		switch r.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return r.Float64()*80 - 40
	}
	return mathx.V3(coord(), coord(), coord())
}

func randRot(r *rand.Rand) mathx.Quat {
	switch r.Intn(4) {
	case 0:
		return mathx.QuatIdentity()
	case 1:
		// Equal to the identity under ==, but not the identity's bits.
		return mathx.QuatIdentity().Conj()
	case 2:
		return mathx.QuatAxisAngle(mathx.V3(0, 1, 0), r.Float64()*7-3.5)
	}
	return mathx.QuatAxisAngle(mathx.V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64()), r.Float64()*7-3.5)
}

// TestPoseCachesMatchRecompute drives objects through random SetPose
// sequences — identity and non-identity rotations, repeated poses, queries
// between poses in every combination — and checks that the sphere centre,
// AABB and triangles always equal a from-scratch transform.
func TestPoseCachesMatchRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	objs := []*Object{
		NewObject("box", BoxMesh(0.9, 0.6, 0.9)),
		NewObject("slab", BoxMesh(2, 0, 0.25)), // zero half-extent: ±0 vertices
		NewObject("drum", CylinderMesh(0.5, 0.8, 7)),
	}
	for _, o := range objs {
		checkPose(t, o, true, true) // as constructed
		for i := 0; i < 4000; i++ {
			pos, rot := randPos(r), randRot(r)
			if r.Intn(5) == 0 {
				pos, rot = o.pos, o.rot // the same pose again
			}
			o.SetPose(pos, rot)
			for q := r.Intn(3); q > 0; q-- {
				checkPose(t, o, r.Intn(2) == 0, r.Intn(2) == 0)
			}
		}
		checkPose(t, o, true, true)
	}
}

// TestCheckPairMatchesBruteForceRandom: on 10k random box pairs the
// multi-level verdict and contact point equal the brute-force ones (the
// brute-force path shares only the world triangles and the L3 test).
func TestCheckPairMatchesBruteForceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	half := func() float64 { return 0.2 + r.Float64()*2 }
	ml, bf := &World{}, &World{BruteForce: true}
	hits := 0
	for i := 0; i < 10000; i++ {
		a := NewObject("a", BoxMesh(half(), half(), half()))
		b := NewObject("b", BoxMesh(half(), half(), half()))
		at := randPos(r)
		a.SetPose(at, randRot(r))
		// Near enough that about half the pairs get past L1.
		b.SetPose(at.Add(mathx.V3(r.NormFloat64(), r.NormFloat64(), r.NormFloat64()).Scale(2.5)), randRot(r))
		gotC, got := ml.CheckPair(a, b)
		wantC, want := bf.CheckPair(a, b)
		if got != want || vecBits(gotC.Point) != vecBits(wantC.Point) {
			t.Fatalf("pair %d: multi-level %v %v, brute force %v %v", i, got, gotC.Point, want, wantC.Point)
		}
		if got {
			hits++
		}
	}
	if s := ml.Stats(); hits < 1000 || s.L1Reject < 1000 || s.L2Reject < 100 {
		t.Fatalf("sample does not exercise every level: %d hits, %+v", hits, s)
	}
}

// exp5Scene is the EXP-5 collision field (README, "Paper figures"): a 4 m
// grid of unit boxes with every tenth one pulled in to touch its neighbour.
func exp5Scene(n int, brute bool) *World {
	w := &World{BruteForce: brute}
	for i := 0; i < n; i++ {
		o := NewObject(fmt.Sprintf("o%d", i), BoxMesh(0.5, 0.5, 0.5))
		pos := mathx.V3(float64(i%10)*4, 0, float64(i/10)*4)
		if i%10 == 9 {
			pos.X -= 3.4
		}
		o.SetPose(pos, mathx.QuatIdentity())
		w.Add(o)
	}
	return w
}

// barFieldStats sweeps a cargo-sized box through a row of yawed bars — the
// judge's situation: posed-once rotated obstacles, a translate-only proxy
// moved before every pass — and returns the descent counters.
func barFieldStats() Stats {
	w := &World{}
	var bars []*Object
	for i := 0; i < 6; i++ {
		bar := NewObject(fmt.Sprintf("bar%d", i), BoxMesh(3, 0.15, 0.15))
		bar.SetPose(mathx.V3(float64(i)*5, 2, 0), mathx.QuatAxisAngle(mathx.V3(0, 1, 0), float64(i)*0.4))
		bars = append(bars, bar)
	}
	cargo := NewObject("cargo", BoxMesh(0.9, 0.6, 0.9))
	for step := 0; step < 400; step++ {
		cargo.SetPose(mathx.V3(float64(step)*0.08-3, 2.5+math.Sin(float64(step)*0.05), 0.6), mathx.QuatIdentity())
		for _, bar := range bars {
			w.CheckPair(bar, cargo)
		}
	}
	return w.Stats()
}

// TestDescentStatsPinned pins how far pairs descend the hierarchy, on the
// EXP-5 scene and on a bar field, to the numbers the kernel produced
// before bounds followed the pose: a cache that moved a bound by one ulp
// would move a pair across a level and show up here, and the multi-level
// vs brute-force ablation is measured in these counters.
func TestDescentStatsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  Stats
		want Stats
	}{
		{"exp5/60 multi-level", statsOf(exp5Scene(60, false)), Stats{Pairs: 1770, L1Reject: 1764, L3Tests: 6, Contacts: 6, TriChecks: 30}},
		{"exp5/60 brute force", statsOf(exp5Scene(60, true)), Stats{Pairs: 1770, L3Tests: 1770, Contacts: 6, TriChecks: 1524126}},
		{"exp5/100 multi-level", statsOf(exp5Scene(100, false)), Stats{Pairs: 4950, L1Reject: 4940, L3Tests: 10, Contacts: 10, TriChecks: 50}},
		{"bar field", barFieldStats(), Stats{Pairs: 2400, L1Reject: 1780, L2Reject: 377, L3Tests: 243, Contacts: 174, TriChecks: 62225}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: stats %+v, pinned %+v", tc.name, tc.got, tc.want)
		}
	}
}

func statsOf(w *World) Stats {
	w.FindContacts()
	return w.Stats()
}
