package render

import (
	"math"

	"codsim/internal/mathx"
)

// Camera defines one display's view: a perspective projection looking from
// Eye toward Target.
type Camera struct {
	Eye    mathx.Vec3
	Target mathx.Vec3
	Up     mathx.Vec3
	FovY   float64 // vertical field of view, radians
	Aspect float64 // width / height
	Near   float64
	Far    float64
}

// DefaultCamera returns a camera with sane clip planes and a 4:3 aspect
// (the era's monitors).
func DefaultCamera() Camera {
	return Camera{
		Up:     mathx.V3(0, 1, 0),
		FovY:   mathx.Rad(45),
		Aspect: 4.0 / 3.0,
		Near:   0.5,
		Far:    500,
	}
}

// View returns the camera's view matrix.
func (c Camera) View() mathx.Mat4 { return mathx.LookAt(c.Eye, c.Target, c.Up) }

// Proj returns the camera's projection matrix.
func (c Camera) Proj() mathx.Mat4 {
	return mathx.Perspective(c.FovY, c.Aspect, c.Near, c.Far)
}

// ViewProj returns Proj·View.
func (c Camera) ViewProj() mathx.Mat4 { return c.Proj().MulM(c.View()) }

// SurroundCameras builds the camera set of the paper's surround view
// (Fig. 10): count displays fan out around the cab's forward direction,
// each covering fovH horizontally, so three displays at 40° each give the
// ≈120° panorama. eye is the cab position, heading the cab yaw.
func SurroundCameras(eye mathx.Vec3, heading float64, count int, fovH, aspect float64) []Camera {
	if count < 1 {
		count = 1
	}
	cams := make([]Camera, count)
	for i := range cams {
		cams[i] = SurroundCamera(eye, heading, i, count, fovH, aspect)
	}
	return cams
}

// SurroundCamera is camera i of SurroundCameras' set of count, for a
// display that needs only its own.
func SurroundCamera(eye mathx.Vec3, heading float64, i, count int, fovH, aspect float64) Camera {
	if count < 1 {
		count = 1
	}
	// Offsets center the fan: for 3 displays, -fovH, 0, +fovH.
	offset := (float64(i) - float64(count-1)/2) * fovH
	sin, cos := math.Sincos(heading + offset)
	cam := DefaultCamera()
	cam.Eye = eye
	cam.Target = eye.Add(mathx.V3(sin, 0, -cos)) // heading 0 looks down -Z
	// Vertical FOV from the horizontal one: tan(fovH/2) = aspect·tan(fovY/2).
	cam.FovY = 2 * math.Atan(math.Tan(fovH/2)/aspect)
	cam.Aspect = aspect
	return cam
}
