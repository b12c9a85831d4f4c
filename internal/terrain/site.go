package terrain

import (
	"math"
	"sync"
)

// SiteConfig parameterizes the procedural construction site used by the
// training scenario (Fig. 8): a mostly flat yard with gentle undulation, a
// bermed driving route, and a levelled test ground for the licensing exam.
type SiteConfig struct {
	// Width and Depth are the site extent in meters.
	Width, Depth float64
	// Spacing is the grid resolution in meters.
	Spacing float64
	// Roughness scales the rolling undulation amplitude in meters.
	Roughness float64
	// Seed varies the undulation phase pattern deterministically.
	Seed int64
}

// DefaultSite returns the configuration used by the shipped scenario: a
// 200 m × 200 m yard at 2 m resolution with ±0.4 m undulation.
func DefaultSite() SiteConfig {
	return SiteConfig{Width: 200, Depth: 200, Spacing: 2, Roughness: 0.4, Seed: 1}
}

// GenerateSite builds the deterministic construction-site terrain. The
// height field is a sum of incommensurate sinusoids (smooth, bounded,
// seed-shifted) flattened inside the exam test ground circle so cargo
// handling happens on level pavement, plus a gentle berm along the drive
// route edge to exercise terrain following on the way (§3.5, §3.6).
func GenerateSite(cfg SiteConfig) (*Map, error) {
	if cfg.Width <= 0 || cfg.Depth <= 0 {
		cfg = DefaultSite()
	}
	if cfg.Spacing <= 0 {
		cfg.Spacing = 2
	}
	w := int(cfg.Width/cfg.Spacing) + 1
	h := int(cfg.Depth/cfg.Spacing) + 1
	if w < 2 {
		w = 2
	}
	if h < 2 {
		h = 2
	}
	seedPhase := float64(cfg.Seed%360) * math.Pi / 180

	heights := make([]float64, w*h)
	for iz := 0; iz < h; iz++ {
		for ix := 0; ix < w; ix++ {
			x := float64(ix) * cfg.Spacing
			z := float64(iz) * cfg.Spacing
			heights[iz*w+ix] = siteHeight(cfg, seedPhase, x, z)
		}
	}
	return New(w, h, cfg.Spacing, heights)
}

var (
	defaultSiteOnce sync.Once
	defaultSiteMap  *Map
)

// DefaultMap returns the construction-site terrain for DefaultSite(),
// built once and shared: a Map is immutable after construction, so every
// headless run, oracle dry-run and federation — across goroutines — can
// read the same instance instead of regenerating the ~10k-sample height
// field per run.
func DefaultMap() *Map {
	defaultSiteOnce.Do(func() {
		m, err := GenerateSite(DefaultSite())
		if err != nil {
			// DefaultSite is a fixed, valid configuration.
			panic("terrain: DefaultSite failed to generate: " + err.Error())
		}
		defaultSiteMap = m
	})
	return defaultSiteMap
}

// Test-ground geometry shared with the scenario package: the exam area is a
// levelled circle in the site's north-east quadrant.
const (
	// TestGroundX and TestGroundZ locate the center of the exam circle.
	TestGroundX = 140.0
	TestGroundZ = 140.0
	// TestGroundRadius is the levelled radius around the exam area.
	TestGroundRadius = 45.0
	// StartX and StartZ locate the scenario's vehicle start point.
	StartX = 30.0
	StartZ = 30.0
)

func siteHeight(cfg SiteConfig, phase, x, z float64) float64 {
	r := cfg.Roughness
	// Rolling yard undulation.
	hgt := r * (0.5*math.Sin(x*0.045+phase) +
		0.3*math.Sin(z*0.06+2.1*phase+1.3) +
		0.2*math.Sin((x+z)*0.025+0.7))
	// A soft berm across the middle of the drive route (pitch/roll work).
	berm := 0.6 * r * math.Exp(-sq((math.Hypot(x-80, z-70)-25)/8))
	hgt += berm

	// Level the exam test ground: blend to zero inside the circle.
	d := math.Hypot(x-TestGroundX, z-TestGroundZ)
	if d < TestGroundRadius {
		blend := smooth01((TestGroundRadius - d) / 12)
		hgt *= 1 - blend
	}
	return hgt
}

func sq(v float64) float64 { return v * v }

// smooth01 clamps t to [0,1] and applies the Hermite smoothstep.
func smooth01(t float64) float64 {
	if t <= 0 {
		return 0
	}
	if t >= 1 {
		return 1
	}
	return t * t * (3 - 2*t)
}
