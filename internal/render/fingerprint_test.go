package render

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/terrain"
)

// framesGolden pins the rasterizer's output bit for bit: per frame a hash
// of the colour and depth planes, and the ledger. It is version 2, cut
// once from the fixed-point kernel when that replaced the float
// bounding-box loop that had written version 1. A change to how spans are
// found, to the clip, to set-up or to the traversal order must leave it
// alone; it may be re-cut — delete the file and run the test once — only
// by a change that means to alter what is computed (the snapping grid, the
// fill rule, the depth expression, the shading, the scenes below), and
// that change's description says what moved and by how much.
const framesGolden = "testdata/frames.golden"

// The paper's display: 640×480, 3235 polygons, three surround cameras of
// 40° each.
const (
	paperW, paperH = 640, 480
	paperPolys     = 3235
	paperDisplays  = 3
)

// testRNG is splitmix64. The pose streams behind the golden must not move
// with the standard library's generator.
type testRNG uint64

func (r *testRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [lo, hi).
func (r *testRNG) float(lo, hi float64) float64 {
	return lo + (hi-lo)*float64(r.next()>>11)/(1<<53)
}

// mag returns ±10^e with e uniform in [lo, hi).
func (r *testRNG) mag(lo, hi float64) float64 {
	v := math.Pow(10, r.float(lo, hi))
	if r.next()&1 == 0 {
		v = -v
	}
	return v
}

// framePose is one crane pose and the cab eye its surround cameras fan out
// from.
type framePose struct {
	st      fom.CraneState
	eye     mathx.Vec3
	heading float64
}

// randomPose places the crane somewhere on the site with its boom
// anywhere in its envelope. The eye rides the cab, 3.2 m up as in the
// display loop, or — groundEye — stands 0.5 m above the ground beside the
// carrier, where the near plane cuts through terrain and crane alike.
func randomPose(rng *testRNG, ter *terrain.Map, groundEye bool) framePose {
	sx, sz := ter.Size()
	x, z := rng.float(0.1*sx, 0.9*sx), rng.float(0.1*sz, 0.9*sz)
	st := fom.CraneState{
		Position:  mathx.V3(x, ter.HeightAt(x, z), z),
		Heading:   rng.float(-math.Pi, math.Pi),
		Pitch:     rng.float(-0.05, 0.05),
		Roll:      rng.float(-0.05, 0.05),
		BoomSwing: rng.float(-math.Pi, math.Pi),
		BoomLuff:  rng.float(0.1, 1.3),
		BoomLen:   rng.float(9, 28),
		CableLen:  rng.float(2, 15),
	}
	st.HookPos = boomTipWorld(st).Add(mathx.V3(rng.float(-1, 1), -st.CableLen, rng.float(-1, 1)))
	cx, cz := x+rng.float(-15, 15), z+rng.float(-15, 15)
	st.CargoPos = mathx.V3(cx, ter.HeightAt(cx, cz)+0.6, cz)
	p := framePose{st: st, eye: st.Position.Add(mathx.V3(0, 3.2, 0)), heading: st.Heading}
	if groundEye {
		ex, ez := x+4, z+2
		p.eye = mathx.V3(ex, ter.HeightAt(ex, ez)+0.5, ez)
	}
	return p
}

// cameras returns the pose's three surround cameras.
func (p framePose) cameras() []Camera {
	return SurroundCameras(p.eye, p.heading, paperDisplays, mathx.Rad(40), float64(paperW)/paperH)
}

// barCourse lays a fan of course bars (Fig. 9) through a ground-level eye
// at (x, z) looking along heading: every bar starts behind the eye and
// ends ahead of it, so its long faces cross the near plane inside one of
// the three surround views. It returns the bars and the eye among them.
func barCourse(ter *terrain.Map, x, z, heading float64) ([]Obstacle, mathx.Vec3) {
	eye := mathx.V3(x, ter.HeightAt(x, z)+0.5, z)
	bars := make([]Obstacle, 24)
	for k := range bars {
		yaw := heading + (float64(k)-11.5)*mathx.Rad(4.3)
		sin, cos := math.Sincos(yaw)
		dir := mathx.V3(sin, 0, -cos)
		bars[k] = Obstacle{
			Pos:   eye.Add(dir.Scale(3)).Add(mathx.V3(0, -0.3+0.05*float64(k%7), 0)),
			Half:  mathx.V3(0.08, 0.08, 5),
			Yaw:   yaw,
			Color: RGB{R: 220, G: 40, B: 40},
		}
	}
	return bars, eye
}

// paperScene bakes the paper-sized site.
func paperScene(tb testing.TB, ter *terrain.Map, obstacles ...Obstacle) *SceneBuilder {
	tb.Helper()
	b, err := NewSceneBuilder(ter, obstacles, paperPolys)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// paperRenderer is a renderer at the paper's display size.
func paperRenderer(tb testing.TB) *Renderer {
	tb.Helper()
	r, err := NewRenderer(paperW, paperH)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// frameHash is FNV-64a over every colour byte and the bits of every depth
// value of the frame r rendered last, plane by plane. Hand-rolled:
// hash/fnv's Write per 8 bytes costs more than the frame it hashes.
func frameHash(r *Renderer) uint64 {
	h := uint64(fnvOffset)
	for _, c := range r.fb.Color {
		h = (h ^ uint64(c.R)) * fnvPrime
		h = (h ^ uint64(c.G)) * fnvPrime
		h = (h ^ uint64(c.B)) * fnvPrime
	}
	for _, d := range r.capture {
		v := math.Float64bits(d)
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * fnvPrime
			v >>= 8
		}
	}
	return h
}

// TestFrameFingerprint renders seeded crane poses through the three
// surround cameras — cab eyes and ground-level eyes on the daylight site,
// then a dimmed site, a two-crane site and a bar course seen from the
// ground — and compares every frame's hash and ledger against the
// committed golden, one line per frame so a mismatch names it. It runs on
// every GOARCH: from clip space on the renderer cannot be fused (package
// doc, "Rounding"). The scenes are built upstream of that, by mathx and
// the terrain generator; if a port that fuses them fails here while
// TestRasterMatchesReference passes, the difference is theirs.
func TestFrameFingerprint(t *testing.T) {
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		t.Fatal(err)
	}
	site := paperScene(t, ter)
	dim := paperScene(t, ter)
	dim.SetVisibility(0.4)
	tandem := paperScene(t, ter)
	tandem.AddCrane()
	bars, barEye := barCourse(ter, 100, 106, 0)
	course := paperScene(t, ter, bars...)

	r := withDepth(paperRenderer(t))
	rng := testRNG(20010416)
	var got strings.Builder
	clippedAtGround := 0
	frame := func(name string, b *SceneBuilder, pose int, p framePose, groundEye bool) {
		for ci, cam := range p.cameras() {
			s := r.Render(b.Scene(), cam)
			if groundEye {
				clippedAtGround += s.Clipped
			}
			fmt.Fprintf(&got, "%s pose=%02d cam=%d fnv64a=%016x sub=%d cull=%d clip=%d rast=%d pix=%d vis=%d\n",
				name, pose, ci, frameHash(r), s.Submitted, s.Culled, s.Clipped, s.Rasterized, s.Pixels, s.Visited)
		}
	}
	for i := 0; i < 24; i++ {
		groundEye := i%3 == 2
		p := randomPose(&rng, ter, groundEye)
		site.UpdateCrane(0, p.st)
		frame("site", site, i, p, groundEye)
	}
	for i := 0; i < 4; i++ {
		p := randomPose(&rng, ter, i == 3)
		dim.UpdateCrane(0, p.st)
		frame("dim", dim, i, p, i == 3)
	}
	for i := 0; i < 4; i++ {
		p := randomPose(&rng, ter, i == 3)
		second := randomPose(&rng, ter, false)
		// The second carrier works beside the first, inside its view.
		second.st.Position = p.st.Position.Add(mathx.V3(9, 0, -14))
		tandem.UpdateCrane(0, p.st)
		tandem.UpdateCrane(1, second.st)
		frame("tandem", tandem, i, p, i == 3)
	}
	for i := 0; i < 4; i++ {
		p := randomPose(&rng, ter, false)
		p.st.Position = mathx.V3(100, ter.HeightAt(100, 94), 94) // ahead of the eye
		p.eye, p.heading = barEye, 0
		course.UpdateCrane(0, p.st)
		frame("course", course, i, p, true)
	}
	if clippedAtGround < 500 {
		t.Fatalf("ground-level eyes clipped only %d triangles: the golden does not cover near-plane clipping", clippedAtGround)
	}

	want, err := os.ReadFile(framesGolden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(framesGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("no golden: wrote %s — commit it and re-run", framesGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			w := "(missing)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("frame fingerprint moved at line %d:\n got  %s\n want %s", i+1, gotLines[i], w)
		}
	}
	t.Fatalf("frame fingerprint moved: golden has %d lines, run produced %d", len(wantLines), len(gotLines))
}
