package mathx

import "math"

// Quat is a rotation quaternion (W + Xi + Yj + Zk).
type Quat struct {
	W, X, Y, Z float64
}

// QuatIdentity returns the identity rotation.
func QuatIdentity() Quat { return Quat{W: 1} }

// QuatAxisAngle builds a quaternion rotating angle radians about axis.
// The axis need not be normalized; a zero axis yields the identity.
func QuatAxisAngle(axis Vec3, angle float64) Quat {
	axis = axis.Normalize()
	if axis.LenSq() == 0 {
		return QuatIdentity()
	}
	s, c := math.Sincos(angle / 2)
	return Quat{W: c, X: axis.X * s, Y: axis.Y * s, Z: axis.Z * s}
}

// QuatEuler builds a quaternion from yaw (about Y), pitch (about X) and roll
// (about Z), applied in yaw→pitch→roll order. This is the convention used by
// the motion platform pose (heave/sway/surge + yaw/pitch/roll).
func QuatEuler(yaw, pitch, roll float64) Quat {
	sy, cy := Sincos(yaw / 2)
	return QuatEulerHalfYaw(sy, cy, pitch, roll)
}

// QuatEulerHalfYaw is QuatEuler with the yaw given as the sine and cosine
// of its half angle, for a caller that keeps them across calls.
func QuatEulerHalfYaw(sy, cy, pitch, roll float64) Quat {
	// QuatAxisAngle about the unit axes, minus its Normalize (dividing by
	// a length of 1 is exact). 0*s is the off-axis component axis·s: a
	// zero that carries the sine's sign into the products below.
	sp, cp := Sincos(pitch / 2)
	sr, cr := Sincos(roll / 2)
	qy := Quat{W: cy, X: 0 * sy, Y: sy, Z: 0 * sy}
	qp := Quat{W: cp, X: sp, Y: 0 * sp, Z: 0 * sp}
	qr := Quat{W: cr, X: 0 * sr, Y: 0 * sr, Z: sr}
	return qy.Mul(qp).Mul(qr)
}

// Mul returns the Hamilton product q·r (apply r first, then q).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: q.W*r.W - q.X*r.X - q.Y*r.Y - q.Z*r.Z,
		X: q.W*r.X + q.X*r.W + q.Y*r.Z - q.Z*r.Y,
		Y: q.W*r.Y - q.X*r.Z + q.Y*r.W + q.Z*r.X,
		Z: q.W*r.Z + q.X*r.Y - q.Y*r.X + q.Z*r.W,
	}
}

// Conj returns the conjugate of q.
func (q Quat) Conj() Quat { return Quat{W: q.W, X: -q.X, Y: -q.Y, Z: -q.Z} }

// Len returns the norm of q.
func (q Quat) Len() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Normalize returns q scaled to unit norm; the zero quaternion becomes the
// identity.
func (q Quat) Normalize() Quat {
	l := q.Len()
	if l == 0 {
		return QuatIdentity()
	}
	inv := 1 / l
	return Quat{W: q.W * inv, X: q.X * inv, Y: q.Y * inv, Z: q.Z * inv}
}

// Rotate applies the rotation q to vector v.
func (q Quat) Rotate(v Vec3) Vec3 {
	// v' = q * (0,v) * q⁻¹ for unit q.
	p := Quat{W: 0, X: v.X, Y: v.Y, Z: v.Z}
	r := q.Mul(p).Mul(q.Conj())
	return Vec3{r.X, r.Y, r.Z}
}

// Mat4 converts the (unit) quaternion to a rotation matrix.
func (q Quat) Mat4() Mat4 {
	w, x, y, z := q.W, q.X, q.Y, q.Z
	return Mat4{
		1 - 2*(y*y+z*z), 2 * (x*y - w*z), 2 * (x*z + w*y), 0,
		2 * (x*y + w*z), 1 - 2*(x*x+z*z), 2 * (y*z - w*x), 0,
		2 * (x*z - w*y), 2 * (y*z + w*x), 1 - 2*(x*x+y*y), 0,
		0, 0, 0, 1,
	}
}

// Slerp spherically interpolates from q to r by t in [0,1], taking the
// shortest arc. Falls back to lerp+normalize for nearly parallel inputs.
func (q Quat) Slerp(r Quat, t float64) Quat {
	dot := q.W*r.W + q.X*r.X + q.Y*r.Y + q.Z*r.Z
	if dot < 0 { // take the short way around
		r = Quat{W: -r.W, X: -r.X, Y: -r.Y, Z: -r.Z}
		dot = -dot
	}
	if dot > 0.9995 {
		return Quat{
			W: Lerp(q.W, r.W, t),
			X: Lerp(q.X, r.X, t),
			Y: Lerp(q.Y, r.Y, t),
			Z: Lerp(q.Z, r.Z, t),
		}.Normalize()
	}
	theta := math.Acos(Clamp(dot, -1, 1))
	sin := math.Sin(theta)
	wq := math.Sin((1-t)*theta) / sin
	wr := math.Sin(t*theta) / sin
	return Quat{
		W: q.W*wq + r.W*wr,
		X: q.X*wq + r.X*wr,
		Y: q.Y*wq + r.Y*wr,
		Z: q.Z*wq + r.Z*wr,
	}
}

// Euler extracts (yaw, pitch, roll) from a unit quaternion using the same
// convention as QuatEuler. Pitch is clamped at the ±π/2 gimbal poles.
func (q Quat) Euler() (yaw, pitch, roll float64) {
	m := q.Mat4()
	// With R = Ry(yaw)·Rx(pitch)·Rz(roll):
	//   m[6]  = -sin(pitch) ... row1 col2
	pitch = math.Asin(Clamp(-m[6], -1, 1))
	if math.Abs(m[6]) < 0.9999995 {
		yaw = math.Atan2(m[2], m[10])
		roll = math.Atan2(m[4], m[5])
	} else { // gimbal lock: roll folded into yaw
		yaw = math.Atan2(-m[8], m[0])
		roll = 0
	}
	return yaw, pitch, roll
}
