// Package mathx provides the small linear-algebra toolkit shared by the
// renderer, the crane dynamics, and the Stewart-platform kinematics:
// 3-component vectors, 4×4 matrices, quaternions, and scalar helpers.
//
// Conventions: right-handed coordinates, +Y up, angles in radians, matrices
// are row-major and multiply column vectors (v' = M · v).
package mathx

import "math"

// Vec3 is a 3-component vector of float64.
type Vec3 struct {
	X, Y, Z float64
}

// V3 is shorthand for constructing a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Add returns v + u.
func (v Vec3) Add(u Vec3) Vec3 { return Vec3{v.X + u.X, v.Y + u.Y, v.Z + u.Z} }

// Sub returns v - u.
func (v Vec3) Sub(u Vec3) Vec3 { return Vec3{v.X - u.X, v.Y - u.Y, v.Z - u.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the dot product v · u.
func (v Vec3) Dot(u Vec3) float64 { return v.X*u.X + v.Y*u.Y + v.Z*u.Z }

// Cross returns the cross product v × u.
func (v Vec3) Cross(u Vec3) Vec3 {
	return Vec3{
		X: v.Y*u.Z - v.Z*u.Y,
		Y: v.Z*u.X - v.X*u.Z,
		Z: v.X*u.Y - v.Y*u.X,
	}
}

// Len returns the Euclidean length of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// LenSq returns the squared length of v.
func (v Vec3) LenSq() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and u.
func (v Vec3) Dist(u Vec3) float64 { return v.Sub(u).Len() }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged so callers never divide by zero.
func (v Vec3) Normalize() Vec3 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Lerp linearly interpolates from v to u by t in [0,1].
func (v Vec3) Lerp(u Vec3, t float64) Vec3 {
	return Vec3{
		X: v.X + (u.X-v.X)*t,
		Y: v.Y + (u.Y-v.Y)*t,
		Z: v.Z + (u.Z-v.Z)*t,
	}
}

// Mul returns the component-wise product of v and u.
func (v Vec3) Mul(u Vec3) Vec3 { return Vec3{v.X * u.X, v.Y * u.Y, v.Z * u.Z} }

// Min returns the component-wise minimum of v and u.
func (v Vec3) Min(u Vec3) Vec3 {
	return Vec3{math.Min(v.X, u.X), math.Min(v.Y, u.Y), math.Min(v.Z, u.Z)}
}

// Max returns the component-wise maximum of v and u.
func (v Vec3) Max(u Vec3) Vec3 {
	return Vec3{math.Max(v.X, u.X), math.Max(v.Y, u.Y), math.Max(v.Z, u.Z)}
}

// Abs returns the component-wise absolute value of v.
func (v Vec3) Abs() Vec3 {
	return Vec3{math.Abs(v.X), math.Abs(v.Y), math.Abs(v.Z)}
}

// IsFinite reports whether every component is finite (no NaN or ±Inf).
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// NearEq reports whether v and u are equal within tolerance eps on every
// component.
func (v Vec3) NearEq(u Vec3, eps float64) bool {
	return math.Abs(v.X-u.X) <= eps && math.Abs(v.Y-u.Y) <= eps && math.Abs(v.Z-u.Z) <= eps
}

// Clamp returns f limited to the closed interval [lo, hi].
func Clamp(f, lo, hi float64) float64 {
	if f < lo {
		return lo
	}
	if f > hi {
		return hi
	}
	return f
}

// Lerp linearly interpolates from a to b by t.
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }

// SmoothStep returns the Hermite smooth interpolation of t clamped to [0,1]:
// 3t²-2t³. Used by the motion-platform pose interpolator for C¹ transitions.
func SmoothStep(t float64) float64 {
	t = Clamp(t, 0, 1)
	return t * t * (3 - 2*t)
}

// tinyAngle is 2⁻²⁷: under it sin x rounds to x and cos x to 1, and the
// stdlib's polynomials return exactly those bits.
const tinyAngle = 0x1p-27

// Sincos returns math.Sincos(x), bit for bit. A tiny x skips the
// polynomials, whose powers of a tiny normal x go subnormal and cost the
// CPU a microcode assist each.
func Sincos(x float64) (sin, cos float64) {
	if math.Abs(x) < tinyAngle {
		return x, 1
	}
	return math.Sincos(x)
}

// Sin returns math.Sin(x), bit for bit, skipping the polynomial for a tiny
// x as Sincos does.
func Sin(x float64) float64 {
	if math.Abs(x) < tinyAngle {
		return x
	}
	return math.Sin(x)
}

// WrapAngle normalizes an angle to (-π, π].
func WrapAngle(a float64) float64 {
	// Under 2π in magnitude math.Mod returns its argument unchanged.
	if !(math.Abs(a) < 2*math.Pi) {
		a = math.Mod(a, 2*math.Pi)
	}
	switch {
	case a > math.Pi:
		a -= 2 * math.Pi
	case a <= -math.Pi:
		a += 2 * math.Pi
	}
	return a
}

// AngleDiff returns the signed smallest difference a-b wrapped to (-π, π].
func AngleDiff(a, b float64) float64 { return WrapAngle(a - b) }

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180 }
