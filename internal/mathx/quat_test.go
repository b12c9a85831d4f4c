package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuatIdentityRotate(t *testing.T) {
	v := V3(1, 2, 3)
	if got := QuatIdentity().Rotate(v); !got.NearEq(v, eps) {
		t.Errorf("identity rotate = %v", got)
	}
}

func TestQuatAxisAngle(t *testing.T) {
	q := QuatAxisAngle(V3(0, 1, 0), math.Pi/2)
	if got := q.Rotate(V3(0, 0, 1)); !got.NearEq(V3(1, 0, 0), 1e-12) {
		t.Errorf("Y90 rotate z = %v, want x", got)
	}
	q = QuatAxisAngle(V3(1, 0, 0), math.Pi/2)
	if got := q.Rotate(V3(0, 1, 0)); !got.NearEq(V3(0, 0, 1), 1e-12) {
		t.Errorf("X90 rotate y = %v, want z", got)
	}
	// Zero axis falls back to identity.
	if got := QuatAxisAngle(Vec3{}, 1).Rotate(V3(1, 2, 3)); !got.NearEq(V3(1, 2, 3), eps) {
		t.Errorf("zero-axis rotate = %v", got)
	}
}

func TestQuatMatchesMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		axis := randVec(r).Normalize()
		if axis.LenSq() == 0 {
			continue
		}
		angle := r.Float64()*4*math.Pi - 2*math.Pi
		q := QuatAxisAngle(axis, angle)
		v := randVec(r)
		got := q.Rotate(v)
		want := q.Mat4().MulPoint(v)
		if !got.NearEq(want, 1e-9) {
			t.Fatalf("quat vs matrix mismatch: %v vs %v", got, want)
		}
	}
}

func TestQuatEulerRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		yaw := r.Float64()*2*math.Pi - math.Pi
		pitch := r.Float64()*2.8 - 1.4 // stay off the gimbal poles
		roll := r.Float64()*2*math.Pi - math.Pi
		q := QuatEuler(yaw, pitch, roll)
		gy, gp, gr := q.Euler()
		if math.Abs(AngleDiff(gy, yaw)) > 1e-7 ||
			math.Abs(AngleDiff(gp, pitch)) > 1e-7 ||
			math.Abs(AngleDiff(gr, roll)) > 1e-7 {
			t.Fatalf("euler round trip (%v,%v,%v) -> (%v,%v,%v)", yaw, pitch, roll, gy, gp, gr)
		}
	}
}

func TestQuatRotationPreservesLengthProperty(t *testing.T) {
	f := func(ax, ay, az, angle, vx, vy, vz float64) bool {
		axis := V3(clampMag(ax), clampMag(ay), clampMag(az))
		v := V3(clampMag(vx), clampMag(vy), clampMag(vz))
		q := QuatAxisAngle(axis, clampMag(angle))
		got := q.Rotate(v)
		return math.Abs(got.Len()-v.Len()) < 1e-6*(1+v.Len())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuatMulComposition(t *testing.T) {
	// Rotating by q then p equals rotating by p·q.
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 100; i++ {
		p := QuatAxisAngle(randVec(r), r.Float64()*6)
		q := QuatAxisAngle(randVec(r), r.Float64()*6)
		v := randVec(r)
		lhs := p.Rotate(q.Rotate(v))
		rhs := p.Mul(q).Rotate(v)
		if !lhs.NearEq(rhs, 1e-9) {
			t.Fatalf("composition mismatch: %v vs %v", lhs, rhs)
		}
	}
}

func TestQuatSlerp(t *testing.T) {
	a := QuatIdentity()
	b := QuatAxisAngle(V3(0, 1, 0), math.Pi/2)

	if got := a.Slerp(b, 0).Rotate(V3(0, 0, 1)); !got.NearEq(V3(0, 0, 1), 1e-9) {
		t.Errorf("slerp(0) = %v", got)
	}
	if got := a.Slerp(b, 1).Rotate(V3(0, 0, 1)); !got.NearEq(V3(1, 0, 0), 1e-9) {
		t.Errorf("slerp(1) = %v", got)
	}
	// Halfway: 45° about Y.
	want := QuatAxisAngle(V3(0, 1, 0), math.Pi/4).Rotate(V3(0, 0, 1))
	if got := a.Slerp(b, 0.5).Rotate(V3(0, 0, 1)); !got.NearEq(want, 1e-9) {
		t.Errorf("slerp(0.5) = %v, want %v", got, want)
	}
}

func TestQuatSlerpShortestArc(t *testing.T) {
	// q and -q are the same rotation; slerp must not take the long way.
	a := QuatAxisAngle(V3(0, 1, 0), 0.1)
	b := QuatAxisAngle(V3(0, 1, 0), 0.2)
	bNeg := Quat{W: -b.W, X: -b.X, Y: -b.Y, Z: -b.Z}
	got := a.Slerp(bNeg, 0.5).Rotate(V3(0, 0, 1))
	want := QuatAxisAngle(V3(0, 1, 0), 0.15).Rotate(V3(0, 0, 1))
	if !got.NearEq(want, 1e-9) {
		t.Errorf("slerp with negated target = %v, want %v", got, want)
	}
}

func TestQuatNormalize(t *testing.T) {
	q := Quat{W: 2, X: 0, Y: 0, Z: 0}.Normalize()
	if math.Abs(q.Len()-1) > eps {
		t.Errorf("normalized len = %v", q.Len())
	}
	if got := (Quat{}).Normalize(); got != QuatIdentity() {
		t.Errorf("Normalize(zero) = %v, want identity", got)
	}
}

func BenchmarkQuatRotate(b *testing.B) {
	q := QuatAxisAngle(V3(0.3, 1, 0.2), 1.1)
	v := V3(1, 2, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v = q.Rotate(v)
	}
	_ = v
}

// TestQuatEulerIsAxisAngleComposition pins QuatEuler bit for bit to the
// composition of QuatAxisAngle about the unit axes, signed zeros included:
// the crane kernel's trajectories hash every bit.
func TestQuatEulerIsAxisAngleComposition(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	special := []float64{0, math.Copysign(0, -1), math.Pi, -math.Pi, math.Pi / 2, -math.Pi / 2, 1e-300, -1e-300}
	angle := func() float64 {
		if r.Intn(4) == 0 {
			return special[r.Intn(len(special))]
		}
		return r.Float64()*4*math.Pi - 2*math.Pi
	}
	bits := func(q Quat) [4]uint64 {
		return [4]uint64{math.Float64bits(q.W), math.Float64bits(q.X), math.Float64bits(q.Y), math.Float64bits(q.Z)}
	}
	for i := 0; i < 20000; i++ {
		yaw, pitch, roll := angle(), angle(), angle()
		want := QuatAxisAngle(V3(0, 1, 0), yaw).Mul(QuatAxisAngle(V3(1, 0, 0), pitch)).Mul(QuatAxisAngle(V3(0, 0, 1), roll))
		if got := QuatEuler(yaw, pitch, roll); bits(got) != bits(want) {
			t.Fatalf("QuatEuler(%v, %v, %v) = %+v, composition gives %+v", yaw, pitch, roll, got, want)
		}
	}
}
