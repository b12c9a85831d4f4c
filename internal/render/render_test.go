package render

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/terrain"
)

func singleTriScene(color RGB) *Scene {
	// A triangle facing +Z placed at z=-5, wound counter-clockwise when
	// viewed from +Z (the camera at origin looking down -Z).
	verts := []mathx.Vec3{
		{X: -1, Y: -1, Z: -5},
		{X: 1, Y: -1, Z: -5},
		{X: 0, Y: 1, Z: -5},
	}
	m, err := NewMesh(verts, [][3]int{{0, 1, 2}}, []RGB{color})
	if err != nil {
		panic(err)
	}
	return &Scene{
		Instances: []Instance{{Mesh: m, Transform: mathx.Identity4()}},
		LightDir:  mathx.V3(0, 0, 1),
		Ambient:   1, // full ambient: color arrives unchanged
	}
}

func frontCamera() Camera {
	c := DefaultCamera()
	c.Eye = mathx.V3(0, 0, 0)
	c.Target = mathx.V3(0, 0, -1)
	c.Aspect = 1
	return c
}

func TestNewMeshValidation(t *testing.T) {
	v := []mathx.Vec3{{}, {X: 1}, {Y: 1}}
	if _, err := NewMesh(nil, [][3]int{{0, 1, 2}}, []RGB{{}}); err == nil {
		t.Error("empty verts accepted")
	}
	if _, err := NewMesh(v, nil, []RGB{{}}); err == nil {
		t.Error("empty tris accepted")
	}
	if _, err := NewMesh(v, [][3]int{{0, 1, 9}}, []RGB{{}}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := NewMesh(v, [][3]int{{0, 1, 2}}, []RGB{{}, {}}); err == nil {
		t.Error("wrong color count accepted")
	}
	m, err := NewMesh(v, [][3]int{{0, 1, 2}, {2, 1, 0}}, []RGB{{R: 9}})
	if err != nil {
		t.Fatalf("single color broadcast failed: %v", err)
	}
	if m.colors[1].R != 9 {
		t.Error("broadcast color missing")
	}
}

func TestNewFramebufferValidation(t *testing.T) {
	if _, err := NewFramebuffer(0, 10); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewRenderer(-1, 5); err == nil {
		t.Error("negative size accepted")
	}
	// The coverage arithmetic is proved up to maxDim a side; past it — and
	// long before w*h can wrap — a size is an error, not a panic.
	for _, dim := range [][2]int{{maxDim + 1, 1}, {1, maxDim + 1}, {math.MaxInt, 2}, {math.MaxInt/2 + 1, 2}, {math.MaxInt, math.MaxInt}} {
		if _, err := NewFramebuffer(dim[0], dim[1]); err == nil {
			t.Errorf("%dx%d accepted", dim[0], dim[1])
		}
	}
	if fb, err := NewFramebuffer(maxDim, 1); err != nil || len(fb.Color) != maxDim {
		t.Errorf("%dx1 refused: %v", maxDim, err)
	}
}

func TestRenderSingleTriangle(t *testing.T) {
	r, err := NewRenderer(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	scene := singleTriScene(RGB{R: 255})
	stats := r.Render(scene, frontCamera())

	if stats.Submitted != 1 || stats.Rasterized != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Pixels == 0 {
		t.Fatal("no pixels shaded")
	}
	// The triangle center projects to mid-screen.
	if got := r.Framebuffer().At(50, 55); got.R != 255 || got.G != 0 {
		t.Errorf("center pixel = %+v, want red", got)
	}
	// Outside the triangle stays background.
	if got := r.Framebuffer().At(5, 5); got.R != 0 {
		t.Errorf("corner pixel = %+v, want background", got)
	}
}

func TestBackfaceCulled(t *testing.T) {
	r, err := NewRenderer(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	scene := singleTriScene(RGB{R: 255})
	// Reverse the winding: now it faces away from the camera.
	scene.Instances[0].Mesh.tris[0] = [3]int{2, 1, 0}
	stats := r.Render(scene, frontCamera())
	if stats.Pixels != 0 {
		t.Errorf("backface shaded %d pixels", stats.Pixels)
	}
	if stats.Culled != 1 {
		t.Errorf("stats = %+v, want 1 culled", stats)
	}
}

func TestFrustumCullBehindCamera(t *testing.T) {
	r, err := NewRenderer(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	scene := singleTriScene(RGB{R: 255})
	// Move the triangle behind the camera.
	scene.Instances[0].Transform = mathx.Translate(mathx.V3(0, 0, 20))
	stats := r.Render(scene, frontCamera())
	if stats.Pixels != 0 || stats.Rasterized != 0 {
		t.Errorf("stats = %+v, want everything culled", stats)
	}
}

func TestZBufferOcclusion(t *testing.T) {
	r, err := NewRenderer(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	near := singleTriScene(RGB{R: 255}) // at z=-5
	farTri := singleTriScene(RGB{G: 255})
	farTri.Instances[0].Transform = mathx.Translate(mathx.V3(0, 0, -5)) // at z=-10
	scene := &Scene{
		Instances: []Instance{farTri.Instances[0], near.Instances[0]},
		Ambient:   1,
	}
	r.Render(scene, frontCamera())
	if got := r.Framebuffer().At(50, 55); got.R != 255 || got.G != 0 {
		t.Errorf("center = %+v, want near (red) triangle", got)
	}

	// Draw order must not matter.
	scene.Instances[0], scene.Instances[1] = scene.Instances[1], scene.Instances[0]
	r.Render(scene, frontCamera())
	if got := r.Framebuffer().At(50, 55); got.R != 255 || got.G != 0 {
		t.Errorf("center after reorder = %+v, want red", got)
	}
}

func TestNearPlaneClipping(t *testing.T) {
	// A triangle straddling the camera plane must be clipped, not culled
	// and not crash the projection.
	r, err := NewRenderer(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	verts := []mathx.Vec3{
		{X: -1, Y: -0.5, Z: 2}, // behind the camera
		{X: 1, Y: -0.5, Z: -5}, // in front
		{X: 0, Y: 0.8, Z: -5},  // in front
	}
	m, err := NewMesh(verts, [][3]int{{0, 1, 2}}, []RGB{{B: 255}})
	if err != nil {
		t.Fatal(err)
	}
	scene := &Scene{Instances: []Instance{{Mesh: m, Transform: mathx.Identity4()}}, Ambient: 1}
	stats := r.Render(scene, frontCamera())
	if stats.Clipped != 1 {
		t.Errorf("stats = %+v, want 1 clipped", stats)
	}
	if stats.Pixels == 0 {
		t.Error("clipped triangle produced no pixels")
	}
}

func TestLambertShading(t *testing.T) {
	r, err := NewRenderer(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	scene := singleTriScene(RGB{R: 200})
	scene.Ambient = 0
	scene.LightDir = mathx.V3(0, 0, 1) // head-on: full diffuse
	r.Render(scene, frontCamera())
	headOn := r.Framebuffer().At(32, 36).R

	scene.LightDir = mathx.V3(0, 0, -1) // from behind: zero diffuse
	r.Render(scene, frontCamera())
	backLit := r.Framebuffer().At(32, 36).R

	if headOn < 190 {
		t.Errorf("head-on brightness = %d, want ~200", headOn)
	}
	if backLit != 0 {
		t.Errorf("back-lit brightness = %d, want 0", backLit)
	}
}

func TestBoxAndCylinderRender(t *testing.T) {
	r, err := NewRenderer(128, 128)
	if err != nil {
		t.Fatal(err)
	}
	cam := frontCamera()
	cam.Eye = mathx.V3(3, 3, 3)
	cam.Target = mathx.V3(0, 0, 0)
	scene := &Scene{
		Instances: []Instance{
			{Mesh: Box(1, 1, 1, RGB{R: 255}), Transform: mathx.Identity4()},
			{Mesh: Cylinder(0.5, 2, 10, RGB{G: 255}), Transform: mathx.Translate(mathx.V3(2, 0, 0))},
		},
		LightDir: mathx.V3(1, 1, 1),
		Ambient:  0.4,
	}
	stats := r.Render(scene, cam)
	if stats.Pixels == 0 {
		t.Fatal("nothing rendered")
	}
	// Roughly half the box triangles are backfaces.
	if stats.Rasterized == 0 || stats.Rasterized >= stats.Submitted {
		t.Errorf("stats = %+v", stats)
	}
}

func TestSurroundCamerasCoverPanorama(t *testing.T) {
	eye := mathx.V3(0, 2, 0)
	cams := SurroundCameras(eye, 0, 3, mathx.Rad(40), 4.0/3.0)
	if len(cams) != 3 {
		t.Fatalf("cameras = %d", len(cams))
	}
	// The middle camera looks along -Z; side cameras ±40°.
	mid := cams[1].Target.Sub(cams[1].Eye)
	if math.Abs(mid.X) > 1e-9 || mid.Z >= 0 {
		t.Errorf("middle camera dir = %v", mid)
	}
	left := cams[0].Target.Sub(cams[0].Eye)
	right := cams[2].Target.Sub(cams[2].Eye)
	wantYaw := mathx.Rad(40)
	if got := math.Atan2(left.X, -left.Z); math.Abs(got+wantYaw) > 1e-9 {
		t.Errorf("left yaw = %v, want %v", got, -wantYaw)
	}
	if got := math.Atan2(right.X, -right.Z); math.Abs(got-wantYaw) > 1e-9 {
		t.Errorf("right yaw = %v, want %v", got, wantYaw)
	}
	// All share the eye point.
	for i, c := range cams {
		if c.Eye != eye {
			t.Errorf("camera %d eye = %v", i, c.Eye)
		}
	}

	// A landmark at the seam between middle and right (20° yaw) is seen
	// by both: near the right edge of the middle view and the left edge
	// of the right view.
	landmark := eye.Add(mathx.V3(math.Sin(mathx.Rad(20)), 0, -math.Cos(mathx.Rad(20))).Scale(20))
	probe := func(cam Camera) (float64, bool) {
		clip, w := cam.ViewProj().MulPointW(landmark)
		if w <= 0 {
			return 0, false
		}
		return clip.X / w, math.Abs(clip.X/w) <= 1.02
	}
	xm, okm := probe(cams[1])
	xr, okr := probe(cams[2])
	if !okm || !okr {
		t.Fatalf("landmark not visible in both seam views: %v %v", okm, okr)
	}
	if xm < 0.9 || xr > -0.9 {
		t.Errorf("seam landmark at x=%v (middle), x=%v (right); want near ±1", xm, xr)
	}
}

func TestSurroundCamerasDegenerate(t *testing.T) {
	cams := SurroundCameras(mathx.Vec3{}, 0, 0, mathx.Rad(40), 1)
	if len(cams) != 1 {
		t.Errorf("count 0 → %d cameras, want 1", len(cams))
	}
}

// TestSurroundCameraMatchesSet: the single-camera form a display uses must
// be the set's camera, field for field, for every display count.
func TestSurroundCameraMatchesSet(t *testing.T) {
	eye := mathx.V3(31.5, 4.2, -17)
	for count := 0; count <= 4; count++ {
		for _, heading := range []float64{0, 0.7, -2.9} {
			cams := SurroundCameras(eye, heading, count, mathx.Rad(40), 4.0/3.0)
			for i, want := range cams {
				if got := SurroundCamera(eye, heading, i, count, mathx.Rad(40), 4.0/3.0); got != want {
					t.Errorf("count %d heading %v camera %d: %+v, set has %+v", count, heading, i, got, want)
				}
			}
		}
	}
}

func TestTerrainMesh(t *testing.T) {
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		t.Fatal(err)
	}
	m, err := TerrainMesh(ter, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.TriangleCount() != 2*20*20 {
		t.Errorf("triangles = %d, want 800", m.TriangleCount())
	}
	if _, err := TerrainMesh(ter, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := TerrainMesh(ter, 1e9); err == nil {
		t.Error("absurd step accepted")
	}
}

func TestSceneBuilderPolygonBudget(t *testing.T) {
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		t.Fatal(err)
	}
	const target = 3235 // the paper's scene size
	b, err := NewSceneBuilder(ter, []Obstacle{
		{Pos: mathx.V3(100, 1, 100), Half: mathx.V3(0.2, 1, 2), Color: RGB{R: 200}},
	}, target)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.PolygonCount(); got < target || got > target+50 {
		t.Errorf("polygons = %d, want >= %d (small overshoot ok)", got, target)
	}
}

func TestSceneBuilderFrame(t *testing.T) {
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSceneBuilder(ter, nil, 3235)
	if err != nil {
		t.Fatal(err)
	}
	st := fom.CraneState{
		Position: mathx.V3(100, 0, 100),
		BoomLuff: mathx.Rad(45),
		BoomLen:  15,
		CableLen: 6,
		HookPos:  mathx.V3(100, 5, 90),
		CargoPos: mathx.V3(100, 1, 90),
	}
	scene := b.Frame(st)

	r, err := NewRenderer(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	cams := SurroundCameras(mathx.V3(100, 4, 106), 0, 3, mathx.Rad(40), 4.0/3.0)
	for i, cam := range cams {
		stats := r.Render(scene, cam)
		if stats.Pixels == 0 {
			t.Errorf("camera %d rendered no pixels", i)
		}
		if stats.Submitted != b.PolygonCount() {
			t.Errorf("camera %d submitted %d, want %d", i, stats.Submitted, b.PolygonCount())
		}
	}

	// Moving the crane moves the carrier instance.
	before := b.scene.Instances[b.parts[0].carrier].Transform
	st.Position = mathx.V3(120, 0, 80)
	b.Frame(st)
	after := b.scene.Instances[b.parts[0].carrier].Transform
	if before == after {
		t.Error("carrier transform did not track state")
	}
}

func TestWritePPM(t *testing.T) {
	r, err := NewRenderer(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	r.Render(singleTriScene(RGB{R: 255}), frontCamera())
	var buf bytes.Buffer
	if err := r.Framebuffer().WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "P6\n8 4\n255\n") {
		t.Errorf("header = %q", out[:16])
	}
	if buf.Len() != len("P6\n8 4\n255\n")+8*4*3 {
		t.Errorf("ppm length = %d", buf.Len())
	}
}

func TestRenderDeterministic(t *testing.T) {
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSceneBuilder(ter, nil, 2000)
	if err != nil {
		t.Fatal(err)
	}
	st := fom.CraneState{Position: mathx.V3(100, 0, 100), BoomLuff: 0.5, BoomLen: 12, CableLen: 5, HookPos: mathx.V3(100, 3, 92)}
	cam := DefaultCamera()
	cam.Eye = mathx.V3(100, 5, 110)
	cam.Target = mathx.V3(100, 2, 90)

	render := func() []RGB {
		r, err := NewRenderer(80, 60)
		if err != nil {
			t.Fatal(err)
		}
		r.Render(b.Frame(st), cam)
		return append([]RGB(nil), r.Framebuffer().Color...)
	}
	a := render()
	bb := render()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("pixel %d differs between identical renders", i)
		}
	}
}

// TestRetarget draws two frames into two planes through one renderer:
// each plane holds what a renderer of its own would have drawn, the first
// is not touched by the second frame, and a plane of another size is
// refused.
func TestRetarget(t *testing.T) {
	scene, cam := siteFrame(t)
	raised := cam
	raised.Eye = cam.Eye.Add(mathx.V3(0, 3, 0))
	alone := func(c Camera) []RGB {
		r, err := NewRenderer(paperW, paperH)
		if err != nil {
			t.Fatal(err)
		}
		r.Render(scene, c)
		return r.Framebuffer().Color
	}
	r, err := NewRenderer(paperW, paperH)
	if err != nil {
		t.Fatal(err)
	}
	first := r.Framebuffer()
	r.Render(scene, cam)
	second, err := NewFramebuffer(paperW, paperH)
	if err != nil {
		t.Fatal(err)
	}
	r.Retarget(second)
	r.Render(scene, raised)
	for name, c := range map[string]struct{ got, want []RGB }{
		"first plane":  {first.Color, alone(cam)},
		"second plane": {second.Color, alone(raised)},
	} {
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Fatalf("%s: pixel %d is %v, want %v", name, i, c.got[i], c.want[i])
			}
		}
	}
	small, err := NewFramebuffer(paperW, paperH-1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a plane of another size was accepted")
		}
	}()
	r.Retarget(small)
}

// siteFrame is the paper's site seen from beside the crane, through the
// middle camera of the surround set.
func siteFrame(tb testing.TB) (*Scene, Camera) {
	tb.Helper()
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		tb.Fatal(err)
	}
	st := fom.CraneState{Position: mathx.V3(100, 0, 100), BoomLuff: 0.6, BoomLen: 14, CableLen: 6, HookPos: mathx.V3(100, 4, 90)}
	cam := SurroundCamera(mathx.V3(100, 4, 106), 0, 1, paperDisplays, mathx.Rad(40), float64(paperW)/paperH)
	return paperScene(tb, ter).Frame(st), cam
}

// nearClipFrame is siteFrame from an eye 0.5 m above the terrain inside a
// bar course: every bar crosses the near plane, so the clipper runs on
// dozens of triangles a frame — the path the cab-height frame never takes,
// and the one that used to allocate.
func nearClipFrame(tb testing.TB) (*Scene, Camera) {
	tb.Helper()
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		tb.Fatal(err)
	}
	bars, eye := barCourse(ter, 100, 106, 0)
	st := fom.CraneState{Position: mathx.V3(100, 0, 94), BoomLuff: 0.6, BoomLen: 14, CableLen: 6, HookPos: mathx.V3(100, 4, 84)}
	cam := SurroundCamera(eye, 0, 1, paperDisplays, mathx.Rad(40), float64(paperW)/paperH)
	return paperScene(tb, ter, bars...).Frame(st), cam
}

func BenchmarkRenderSiteScene(b *testing.B) {
	scene, cam := siteFrame(b)
	r := paperRenderer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Render(scene, cam)
	}
}

func BenchmarkRenderNearClip(b *testing.B) {
	scene, cam := nearClipFrame(b)
	r := paperRenderer(b)
	if s := r.Render(scene, cam); s.Clipped < 50 {
		b.Fatalf("only %d triangles clipped: not a near-clip benchmark", s.Clipped)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Render(scene, cam)
	}
}
