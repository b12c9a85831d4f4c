package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func TestVec3Arithmetic(t *testing.T) {
	v := V3(1, 2, 3)
	u := V3(4, -5, 6)

	if got := v.Add(u); got != V3(5, -3, 9) {
		t.Errorf("Add = %v, want {5 -3 9}", got)
	}
	if got := v.Sub(u); got != V3(-3, 7, -3) {
		t.Errorf("Sub = %v, want {-3 7 -3}", got)
	}
	if got := v.Scale(2); got != V3(2, 4, 6) {
		t.Errorf("Scale = %v, want {2 4 6}", got)
	}
	if got := v.Neg(); got != V3(-1, -2, -3) {
		t.Errorf("Neg = %v, want {-1 -2 -3}", got)
	}
	if got := v.Dot(u); got != 1*4-2*5+3*6 {
		t.Errorf("Dot = %v, want 12", got)
	}
	if got := v.Mul(u); got != V3(4, -10, 18) {
		t.Errorf("Mul = %v, want {4 -10 18}", got)
	}
}

func TestVec3Cross(t *testing.T) {
	x, y, z := V3(1, 0, 0), V3(0, 1, 0), V3(0, 0, 1)
	if got := x.Cross(y); !got.NearEq(z, eps) {
		t.Errorf("x×y = %v, want z", got)
	}
	if got := y.Cross(z); !got.NearEq(x, eps) {
		t.Errorf("y×z = %v, want x", got)
	}
	if got := z.Cross(x); !got.NearEq(y, eps) {
		t.Errorf("z×x = %v, want y", got)
	}
}

func TestVec3CrossOrthogonalProperty(t *testing.T) {
	// v×u is orthogonal to both operands, and anti-commutes.
	f := func(a, b, c, d, e, g float64) bool {
		v := V3(clampMag(a), clampMag(b), clampMag(c))
		u := V3(clampMag(d), clampMag(e), clampMag(g))
		w := v.Cross(u)
		if math.Abs(w.Dot(v)) > 1e-6*(1+v.LenSq()+u.LenSq()) {
			return false
		}
		if math.Abs(w.Dot(u)) > 1e-6*(1+v.LenSq()+u.LenSq()) {
			return false
		}
		return w.Add(u.Cross(v)).NearEq(Vec3{}, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec3Normalize(t *testing.T) {
	if got := V3(3, 4, 0).Normalize(); !got.NearEq(V3(0.6, 0.8, 0), eps) {
		t.Errorf("Normalize = %v", got)
	}
	if got := (Vec3{}).Normalize(); got != (Vec3{}) {
		t.Errorf("Normalize(zero) = %v, want zero", got)
	}
}

func TestVec3LenDist(t *testing.T) {
	if got := V3(1, 2, 2).Len(); math.Abs(got-3) > eps {
		t.Errorf("Len = %v, want 3", got)
	}
	if got := V3(1, 1, 1).Dist(V3(1, 1, 5)); math.Abs(got-4) > eps {
		t.Errorf("Dist = %v, want 4", got)
	}
}

func TestVec3Lerp(t *testing.T) {
	a, b := V3(0, 0, 0), V3(10, -10, 4)
	if got := a.Lerp(b, 0); !got.NearEq(a, eps) {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); !got.NearEq(b, eps) {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); !got.NearEq(V3(5, -5, 2), eps) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestVec3MinMaxAbs(t *testing.T) {
	v, u := V3(1, -2, 3), V3(-1, 5, 2)
	if got := v.Min(u); got != V3(-1, -2, 2) {
		t.Errorf("Min = %v", got)
	}
	if got := v.Max(u); got != V3(1, 5, 3) {
		t.Errorf("Max = %v", got)
	}
	if got := V3(-1, 2, -3).Abs(); got != V3(1, 2, 3) {
		t.Errorf("Abs = %v", got)
	}
}

func TestVec3IsFinite(t *testing.T) {
	if !V3(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if V3(math.NaN(), 0, 0).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if V3(0, math.Inf(1), 0).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		name      string
		f, lo, hi float64
		want      float64
	}{
		{"below", -1, 0, 1, 0},
		{"inside", 0.5, 0, 1, 0.5},
		{"above", 2, 0, 1, 1},
		{"at-low", 0, 0, 1, 0},
		{"at-high", 1, 0, 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Clamp(tt.f, tt.lo, tt.hi); got != tt.want {
				t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tt.f, tt.lo, tt.hi, got, tt.want)
			}
		})
	}
}

func TestSmoothStep(t *testing.T) {
	if got := SmoothStep(0); got != 0 {
		t.Errorf("SmoothStep(0) = %v", got)
	}
	if got := SmoothStep(1); got != 1 {
		t.Errorf("SmoothStep(1) = %v", got)
	}
	if got := SmoothStep(0.5); math.Abs(got-0.5) > eps {
		t.Errorf("SmoothStep(0.5) = %v", got)
	}
	if got := SmoothStep(-5); got != 0 {
		t.Errorf("SmoothStep(-5) = %v, want clamped 0", got)
	}
	if got := SmoothStep(5); got != 1 {
		t.Errorf("SmoothStep(5) = %v, want clamped 1", got)
	}
	// Monotone on [0,1].
	prev := -1.0
	for i := 0; i <= 100; i++ {
		v := SmoothStep(float64(i) / 100)
		if v < prev {
			t.Fatalf("SmoothStep not monotone at %d: %v < %v", i, v, prev)
		}
		prev = v
	}
}

func TestWrapAngle(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{math.Pi / 2, math.Pi / 2},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi}, // boundary maps into (-π, π]
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-3 * math.Pi / 2, math.Pi / 2},
	}
	for _, tt := range tests {
		if got := WrapAngle(tt.in); math.Abs(got-tt.want) > eps {
			t.Errorf("WrapAngle(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestWrapAngleProperty(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.Abs(a) > 1e9 {
			return true // skip pathological inputs
		}
		w := WrapAngle(a)
		if w <= -math.Pi || w > math.Pi+eps {
			return false
		}
		// Same direction: sin/cos must agree.
		return math.Abs(math.Sin(w)-math.Sin(a)) < 1e-6 &&
			math.Abs(math.Cos(w)-math.Cos(a)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// sameBits reports bit equality: signed zeros apart, a NaN equal to itself.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSincosMatchesStdlib holds Sincos and Sin to the stdlib bit for bit
// on both sides of their tiny-angle cut: every binade from 2⁻¹⁰⁷⁴ to 2⁻²⁷
// with random mantissas and both signs, the cut and its neighbours, signed
// zeros, infinities and NaN.
func TestSincosMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	xs := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		math.Nextafter(tinyAngle, 0), tinyAngle, math.Nextafter(tinyAngle, 1),
		math.Inf(1), math.Inf(-1), math.NaN(), 0.3, math.Pi, 1e300}
	for e := -1074; e <= -27; e++ {
		for i := 0; i < 16; i++ {
			xs = append(xs, math.Ldexp(1+r.Float64(), e))
		}
	}
	for _, x := range xs {
		for _, x := range []float64{x, -x} {
			s, c := Sincos(x)
			ws, wc := math.Sincos(x)
			if !sameBits(s, ws) || !sameBits(c, wc) {
				t.Fatalf("Sincos(%b) = (%b, %b), stdlib (%b, %b)", x, s, c, ws, wc)
			}
			if got, want := Sin(x), math.Sin(x); !sameBits(got, want) {
				t.Fatalf("Sin(%b) = %b, stdlib %b", x, got, want)
			}
		}
	}
}

// TestWrapAngleMatchesMod holds WrapAngle, which skips math.Mod under 2π,
// to the form that always takes it, bit for bit.
func TestWrapAngleMatchesMod(t *testing.T) {
	withMod := func(a float64) float64 {
		a = math.Mod(a, 2*math.Pi)
		switch {
		case a > math.Pi:
			a -= 2 * math.Pi
		case a <= -math.Pi:
			a += 2 * math.Pi
		}
		return a
	}
	twoPi := 2 * math.Pi
	xs := []float64{0, math.Copysign(0, -1), math.Pi, -math.Pi, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN()}
	for _, a := range []float64{twoPi, -twoPi} {
		xs = append(xs, a, math.Nextafter(a, 0), math.Nextafter(a, 2*a))
	}
	r := rand.New(rand.NewSource(28))
	for i := 0; i < 100000; i++ {
		xs = append(xs, r.Float64()*16-8)
	}
	for _, a := range xs {
		if got, want := WrapAngle(a), withMod(a); !sameBits(got, want) {
			t.Fatalf("WrapAngle(%b) = %b, the math.Mod form gives %b", a, got, want)
		}
	}
}

func TestAngleDiff(t *testing.T) {
	if got := AngleDiff(0.1, -0.1); math.Abs(got-0.2) > eps {
		t.Errorf("AngleDiff = %v, want 0.2", got)
	}
	// Wraps across the ±π seam.
	if got := AngleDiff(math.Pi-0.05, -math.Pi+0.05); math.Abs(got+0.1) > eps {
		t.Errorf("AngleDiff seam = %v, want -0.1", got)
	}
}

func TestDegRad(t *testing.T) {
	if got := Deg(math.Pi); math.Abs(got-180) > eps {
		t.Errorf("Deg(π) = %v", got)
	}
	if got := Rad(90); math.Abs(got-math.Pi/2) > eps {
		t.Errorf("Rad(90) = %v", got)
	}
}

// clampMag maps an arbitrary quick-generated float into a tame range so
// property tests avoid overflow-driven false failures.
func clampMag(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 1
	}
	return math.Mod(f, 1000)
}

func randVec(r *rand.Rand) Vec3 {
	return V3(r.Float64()*20-10, r.Float64()*20-10, r.Float64()*20-10)
}
