package render

import (
	"fmt"
	"math"

	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/terrain"
)

// Obstacle describes one static prop of the training site: the course
// bars of Fig. 9, crates, sheds. Rendered as a yawed box.
type Obstacle struct {
	Pos   mathx.Vec3 // center position
	Half  mathx.Vec3 // half extents
	Yaw   float64    // rotation about +Y
	Color RGB
}

// TerrainMesh triangulates a terrain map every `step` grid cells, shading
// quads by height.
func TerrainMesh(ter *terrain.Map, step float64) (*Mesh, error) {
	if step <= 0 {
		return nil, fmt.Errorf("render: terrain step %v", step)
	}
	sx, sz := ter.Size()
	nx := int(sx/step) + 1
	nz := int(sz/step) + 1
	if nx < 2 || nz < 2 {
		return nil, fmt.Errorf("render: terrain step %v too coarse", step)
	}
	minH, maxH := ter.Bounds()
	span := maxH - minH
	if span <= 0 {
		span = 1
	}

	verts := make([]mathx.Vec3, 0, nx*nz)
	for iz := 0; iz < nz; iz++ {
		for ix := 0; ix < nx; ix++ {
			x := float64(ix) * step
			z := float64(iz) * step
			verts = append(verts, mathx.V3(x, ter.HeightAt(x, z), z))
		}
	}
	tris := make([][3]int, 0, 2*(nx-1)*(nz-1))
	colors := make([]RGB, 0, cap(tris))
	for iz := 0; iz < nz-1; iz++ {
		for ix := 0; ix < nx-1; ix++ {
			i00 := iz*nx + ix
			i10 := i00 + 1
			i01 := i00 + nx
			i11 := i01 + 1
			// Winding for +Y facing (counter-clockwise from above).
			tris = append(tris, [3]int{i00, i11, i10}, [3]int{i00, i01, i11})
			t := (verts[i00].Y - minH) / span
			c := RGB{
				R: uint8(105 + 40*t),
				G: uint8(110 + 50*t),
				B: uint8(85 + 30*t),
			}
			colors = append(colors, c, c)
		}
	}
	return NewMesh(verts, tris, colors)
}

// SetVisibility darkens the baked scene for night or fog work: v = 1 keeps
// full daylight, lower values dim the ambient term and the sky toward a
// night exterior. Call it after NewSceneBuilder, before the first Frame.
func (b *SceneBuilder) SetVisibility(v float64) {
	v = mathx.Clamp(v, 0.05, 1)
	b.scene.Ambient *= v
	b.scene.Background = RGB{
		R: uint8(float64(b.scene.Background.R) * v * 0.6),
		G: uint8(float64(b.scene.Background.G) * v * 0.6),
		B: uint8(float64(b.scene.Background.B) * v * 0.8),
	}
}

// craneParts indexes the articulated crane instances inside the scene's
// instance list, so Frame can update their transforms in place.
type craneParts struct {
	carrier int
	cab     int
	deck    int
	boom    int
	cable   int
	hook    int
	cargo   int
}

// SceneBuilder assembles the per-frame scene: static site geometry baked
// once, plus one articulated crane per carrier, each updated from its
// CraneState. NewSceneBuilder registers a single crane (index 0);
// AddCrane appends more for tandem-lift scenes.
type SceneBuilder struct {
	scene Scene
	parts []craneParts // one instance group per carrier

	carrierMesh *Mesh
	cabMesh     *Mesh
	deckMesh    *Mesh
	boomMesh    *Mesh // unit length along -Z, foot at origin
	cableMesh   *Mesh // unit length along -Y, top at origin
	hookMesh    *Mesh
	cargoMesh   *Mesh
}

// NewSceneBuilder bakes the static site (terrain + obstacles + filler
// scenery) and registers the crane parts. targetPolys pads the scene with
// scenery boxes until the total triangle count reaches at least the target
// (the paper's scene holds 3235 polygons); pass 0 to skip padding.
func NewSceneBuilder(ter *terrain.Map, obstacles []Obstacle, targetPolys int) (*SceneBuilder, error) {
	b := &SceneBuilder{
		scene: Scene{
			LightDir:   mathx.V3(0.4, 1, 0.3),
			Ambient:    0.35,
			Background: RGB{R: 150, G: 185, B: 225}, // sky
		},
		carrierMesh: Box(1.3, 0.9, 4.3, RGB{R: 215, G: 165, B: 30}),
		cabMesh:     Box(0.8, 0.7, 1.0, RGB{R: 230, G: 220, B: 200}),
		deckMesh:    Box(1.1, 0.5, 1.9, RGB{R: 200, G: 140, B: 25}),
		boomMesh:    boomUnitMesh(RGB{R: 225, G: 175, B: 40}),
		cableMesh:   cableUnitMesh(RGB{R: 40, G: 40, B: 40}),
		hookMesh:    Box(0.25, 0.3, 0.25, RGB{R: 60, G: 60, B: 70}),
		cargoMesh:   Box(0.9, 0.6, 0.9, RGB{R: 170, G: 60, B: 50}),
	}

	// Terrain resolution chosen so the ground consumes roughly 60% of the
	// polygon budget, leaving room for the crane, props and scenery.
	sx, sz := ter.Size()
	step := 4.0
	if targetPolys > 0 {
		cells := float64(targetPolys) * 0.6 / 2
		if cells < 4 {
			cells = 4
		}
		step = mathx.Clamp(math.Sqrt(sx*sz/cells), 2, 20)
	}
	terMesh, err := TerrainMesh(ter, step)
	if err != nil {
		return nil, err
	}
	b.scene.Instances = append(b.scene.Instances, Instance{Mesh: terMesh, Transform: mathx.Identity4()})

	for _, o := range obstacles {
		b.scene.Instances = append(b.scene.Instances, Instance{
			Mesh:      Box(o.Half.X, o.Half.Y, o.Half.Z, o.Color),
			Transform: mathx.Translate(o.Pos).MulM(mathx.RotateY(-o.Yaw)),
		})
	}

	// Articulated crane parts (transforms filled by UpdateCrane).
	b.AddCrane()

	// Pad with scenery (site clutter) to reach the polygon budget.
	if targetPolys > 0 {
		i := 0
		for b.scene.PolygonCount() < targetPolys {
			// Deterministic pseudo-random scatter.
			fx := math.Mod(float64(i)*37.77, sx*0.9) + sx*0.05
			fz := math.Mod(float64(i)*59.13, sz*0.9) + sz*0.05
			h := 0.4 + math.Mod(float64(i)*0.613, 1.8)
			clr := RGB{R: uint8(120 + i%90), G: uint8(100 + (i*13)%80), B: uint8(80 + (i*7)%60)}
			b.scene.Instances = append(b.scene.Instances, Instance{
				Mesh: Box(0.5+math.Mod(float64(i)*0.21, 1.2), h, 0.5, clr),
				Transform: mathx.Translate(mathx.V3(fx, ter.HeightAt(fx, fz)+h, fz)).
					MulM(mathx.RotateY(float64(i) * 0.7)),
			})
			i++
		}
	}
	return b, nil
}

// Clone returns a builder over the same baked scene for another display:
// it shares every mesh, which nothing mutates after construction, and owns
// copies of the instance list and the crane parts, so posing the clone's
// cranes leaves this builder's scene untouched and the two can be used from
// different goroutines. The clone carries this builder's cranes and
// visibility as they stand; apply AddCrane and SetVisibility before
// cloning, not to the clone again.
func (b *SceneBuilder) Clone() *SceneBuilder {
	c := *b
	c.scene.Instances = append([]Instance(nil), b.scene.Instances...)
	c.parts = append([]craneParts(nil), b.parts...)
	return &c
}

// boomUnitMesh is a 1 m boom segment along -Z with its foot at the origin,
// scaled to the live boom length each frame.
func boomUnitMesh(c RGB) *Mesh {
	m := Box(0.28, 0.28, 0.5, c)
	// Shift so the box spans z ∈ [-1, 0] before scaling.
	for i := range m.verts {
		m.verts[i].Z -= 0.5
	}
	return m
}

// cableUnitMesh is a 1 m cable along -Y with its top at the origin.
func cableUnitMesh(c RGB) *Mesh {
	m := Box(0.03, 0.5, 0.03, c)
	for i := range m.verts {
		m.verts[i].Y -= 0.5
	}
	return m
}

// PolygonCount returns the scene's total triangle count.
func (b *SceneBuilder) PolygonCount() int { return b.scene.PolygonCount() }

// AddCrane registers one more articulated crane instance group and
// returns its index. Call during scene setup, before rendering starts.
func (b *SceneBuilder) AddCrane() int {
	add := func(m *Mesh) int {
		b.scene.Instances = append(b.scene.Instances, Instance{Mesh: m, Transform: mathx.Identity4()})
		return len(b.scene.Instances) - 1
	}
	b.parts = append(b.parts, craneParts{
		carrier: add(b.carrierMesh),
		cab:     add(b.cabMesh),
		deck:    add(b.deckMesh),
		boom:    add(b.boomMesh),
		cable:   add(b.cableMesh),
		hook:    add(b.hookMesh),
		cargo:   add(b.cargoMesh),
	})
	return len(b.parts) - 1
}

// Cranes returns how many articulated cranes the scene holds.
func (b *SceneBuilder) Cranes() int { return len(b.parts) }

// Frame updates crane 0 from the crane state and returns the scene for
// rendering — the single-crane path. The returned scene is reused across
// calls; render it before the next Frame call. Multi-crane displays call
// UpdateCrane per carrier and Scene once.
func (b *SceneBuilder) Frame(st fom.CraneState) *Scene {
	b.UpdateCrane(0, st)
	return &b.scene
}

// Scene returns the assembled scene (reused across frames).
func (b *SceneBuilder) Scene() *Scene { return &b.scene }

// UpdateCrane poses articulated crane `idx` from the crane state.
func (b *SceneBuilder) UpdateCrane(idx int, st fom.CraneState) {
	if idx < 0 || idx >= len(b.parts) {
		return
	}
	parts := b.parts[idx]
	carrier := mathx.Translate(st.Position).MulM(
		mathx.QuatEuler(-st.Heading, st.Pitch, -st.Roll).Mat4())

	set := func(i int, t mathx.Mat4) { b.scene.Instances[i].Transform = t }

	set(parts.carrier, carrier.MulM(mathx.Translate(mathx.V3(0, 1.0, 0))))
	set(parts.cab, carrier.MulM(mathx.Translate(mathx.V3(-0.55, 2.3, -2.9))))
	// The deck (superstructure) slews with the boom.
	deckRot := mathx.RotateY(-st.BoomSwing)
	set(parts.deck, carrier.MulM(mathx.Translate(mathx.V3(0, 2.1, 1.0))).MulM(deckRot))

	// Boom: foot at the pivot, slewed and luffed, scaled to length.
	boomXf := carrier.
		MulM(mathx.Translate(mathx.V3(0, 2.4, 1.0))).
		MulM(mathx.RotateY(-st.BoomSwing)).
		MulM(mathx.RotateX(st.BoomLuff)).
		MulM(mathx.ScaleM(mathx.V3(1, 1, st.BoomLen)))
	set(parts.boom, boomXf)

	// Cable: from the boom tip straight toward the hook.
	tip := boomTipWorld(st)
	hook := st.HookPos
	span := hook.Sub(tip)
	length := span.Len()
	cableXf := mathx.Translate(tip).
		MulM(rotateAlign(mathx.V3(0, -1, 0), span)).
		MulM(mathx.ScaleM(mathx.V3(1, length, 1)))
	set(parts.cable, cableXf)

	set(parts.hook, mathx.Translate(hook))
	set(parts.cargo, mathx.Translate(st.CargoPos))
}

// boomTipWorld mirrors dynamics.Model.BoomTip from the published state, so
// display nodes reconstruct the exact articulation without importing the
// physics.
func boomTipWorld(st fom.CraneState) mathx.Vec3 {
	sinS, cosS := math.Sincos(st.BoomSwing)
	sinL, cosL := math.Sincos(st.BoomLuff)
	dir := mathx.V3(sinS*cosL, sinL, -cosS*cosL)
	local := mathx.V3(0, 2.4, 1.0).Add(dir.Scale(st.BoomLen))
	rot := mathx.QuatEuler(-st.Heading, st.Pitch, -st.Roll)
	return st.Position.Add(rot.Rotate(local))
}

// rotateAlign returns the rotation matrix taking unit vector from onto the
// direction of to.
func rotateAlign(from, to mathx.Vec3) mathx.Mat4 {
	f := from.Normalize()
	t := to.Normalize()
	if t.LenSq() == 0 {
		return mathx.Identity4()
	}
	dot := mathx.Clamp(f.Dot(t), -1, 1)
	if dot > 0.99999 {
		return mathx.Identity4()
	}
	if dot < -0.99999 {
		// Opposite: rotate π about any perpendicular axis.
		perp := f.Cross(mathx.V3(1, 0, 0))
		if perp.LenSq() < 1e-12 {
			perp = f.Cross(mathx.V3(0, 0, 1))
		}
		return mathx.QuatAxisAngle(perp, math.Pi).Mat4()
	}
	axis := f.Cross(t)
	return mathx.QuatAxisAngle(axis, math.Acos(dot)).Mat4()
}
