package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"codsim/internal/mathx"
)

// Spec JSON serialization. A scenario file is the JSON encoding of a Spec
// with phase kinds spelled as their lowercase names ("drive", "lift",
// "traverse", "place"), so files read like the phase graph they describe:
//
//	{
//	  "Name": "my-lift",
//	  "Title": "My custom lift",
//	  "Course": { "Start": {"X": ...}, ... },
//	  "Cargos": [ {"Name": "crate", "Pos": {...}, "Mass": 1500} ],
//	  "Phases": [
//	    {"Name": "approach", "Kind": "drive", "Target": {...}, "Radius": 4},
//	    {"Name": "pick",     "Kind": "lift",  "Cargo": 0},
//	    ...
//	  ]
//	}
//
// Every load path validates the spec, so a malformed file fails at load
// time, not mid-federation. This is also the wire format of the dist
// protocol: a coordinator ships each job's Spec to its worker as this
// JSON.
//
// MarshalSpec's bytes are canonical: the verdict cache keys on their
// FNV-1a hash and the hand-off on their SHA-256, so they must never
// drift. They are written field by field by specWriter below, and they
// are the bytes json.MarshalIndent(s, "", "  ") writes for the same spec;
// the tests hold the two equal, json.MarshalIndent being the reference.
// Decoding stays on encoding/json for its unknown-field rule.

// MarshalJSON encodes the kind as its lowercase name.
func (k PhaseKind) MarshalJSON() ([]byte, error) {
	s, ok := phaseKindNames[k]
	if !ok {
		return nil, fmt.Errorf("scenario: cannot marshal unknown phase kind %d", int(k))
	}
	return json.Marshal(s)
}

// UnmarshalJSON accepts a kind name ("drive") or its numeric value.
func (k *PhaseKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		for kind, name := range phaseKindNames {
			if name == s {
				*k = kind
				return nil
			}
		}
		return fmt.Errorf("scenario: unknown phase kind %q", s)
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("scenario: phase kind must be a name or number, got %s", data)
	}
	if _, ok := phaseKindNames[PhaseKind(n)]; !ok {
		return fmt.Errorf("scenario: unknown phase kind %d", n)
	}
	*k = PhaseKind(n)
	return nil
}

// MarshalSpec encodes a validated spec as its canonical indented JSON,
// suitable both for scenario files and for the dist protocol's job
// payloads. The bytes are written field by field, in declaration order,
// and equal json.MarshalIndent(s, "", "  "), the tested reference: nil
// slices as null, phase kinds as their names, floats in encoding/json's
// notation, strings HTML-escaped. A NaN or infinite float is an error.
func MarshalSpec(s Spec) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w := specWriter{b: make([]byte, 0, sizeHint(&s))}
	w.spec(&s)
	if w.err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, w.err)
	}
	return w.b, nil
}

// sizeHint bounds the length of a spec's encoding from above for typical
// values, so the writer's buffer is allocated once: a vector takes at
// most about 100 bytes at the depths it appears, a named record about
// 150 more.
func sizeHint(s *Spec) int {
	vecs := 3 + len(s.Course.Waypoints) + 2*len(s.Course.Bars) + len(s.Cranes) + len(s.Cargos) + 1
	for i := range s.Phases {
		vecs += 1 + len(s.Phases[i].Waypoints)
	}
	records := len(s.Course.Bars) + len(s.Cranes) + len(s.Cargos) + len(s.Phases)
	return 768 + 100*vecs + 150*records
}

// indent is a comma, a newline and the indentation of the deepest member
// a spec has (a traverse waypoint's coordinates, five levels down): a
// member at depth d starts with indent[:2+2*d], the first one of its
// object or array with indent[1:2+2*d].
const indent = ",\n          "

// specWriter appends a spec's canonical JSON, laid out as
// json.MarshalIndent lays it out with a two-space indent.
type specWriter struct {
	b     []byte
	depth int   // open objects and arrays
	more  bool  // the innermost open one has a member already
	err   error // the first value JSON cannot hold
}

// member starts the next member of the innermost open object or array.
func (w *specWriter) member() {
	sep := indent[:2+2*w.depth]
	if !w.more {
		sep = sep[1:]
	}
	w.more = true
	w.b = append(w.b, sep...)
}

func (w *specWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.more = false
}

// close ends a non-empty object or array.
func (w *specWriter) close(c byte) {
	w.depth--
	w.b = append(w.b, indent[1:2+2*w.depth]...)
	w.b = append(w.b, c)
	w.more = true
}

func (w *specWriter) key(name string) {
	w.member()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

func (w *specWriter) str(key, v string) {
	w.key(key)
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// Escaping (HTML characters, U+2028, invalid UTF-8) is
			// encoding/json's to get right; a string never fails.
			q, _ := json.Marshal(v)
			w.b = append(w.b, q...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, v...)
	w.b = append(w.b, '"')
}

func (w *specWriter) int(key string, v int) {
	w.key(key)
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

func (w *specWriter) bool(key string, v bool) {
	w.key(key)
	w.b = strconv.AppendBool(w.b, v)
}

// num writes a float64 as encoding/json does: 'f' notation, or 'e' below
// 1e-6 and from 1e21 up with a two-digit negative exponent shortened
// (1e-07 → 1e-7). Integral values under 1e15 other than -0, whose 'f'
// form is their integer digits, take strconv.AppendInt's faster path.
func (w *specWriter) num(key string, v float64) {
	w.key(key)
	abs := math.Abs(v)
	if abs < 1e15 {
		if i := int64(v); float64(i) == v && (i != 0 || !math.Signbit(v)) {
			w.b = strconv.AppendInt(w.b, i, 10)
			return
		}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("%s: unsupported value %v", key, v)
		}
		return
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, v, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

func (w *specWriter) vec(key string, v mathx.Vec3) {
	w.key(key)
	w.vec3(v)
}

func (w *specWriter) vec3(v mathx.Vec3) {
	w.open('{')
	w.num("X", v.X)
	w.num("Y", v.Y)
	w.num("Z", v.Z)
	w.close('}')
}

// array writes a slice field's key and, as encoding/json does, null for a
// nil slice or [] for an empty one; for n elements it opens the array
// and reports true, and the caller writes each after a member call and
// closes it.
func (w *specWriter) array(key string, isNil bool, n int) bool {
	w.key(key)
	switch {
	case isNil:
		w.b = append(w.b, "null"...)
	case n == 0:
		w.b = append(w.b, "[]"...)
	default:
		w.open('[')
		return true
	}
	return false
}

func (w *specWriter) points(key string, vs []mathx.Vec3) {
	if w.array(key, vs == nil, len(vs)) {
		for _, v := range vs {
			w.member()
			w.vec3(v)
		}
		w.close(']')
	}
}

func (w *specWriter) spec(s *Spec) {
	w.open('{')
	w.str("Name", s.Name)
	w.str("Title", s.Title)
	w.key("Course")
	w.course(&s.Course)
	if w.array("Cranes", s.Cranes == nil, len(s.Cranes)) {
		for _, c := range s.Cranes {
			w.member()
			w.open('{')
			w.str("Name", c.Name)
			w.vec("Start", c.Start)
			w.num("StartYaw", c.StartYaw)
			w.close('}')
		}
		w.close(']')
	}
	if w.array("Cargos", s.Cargos == nil, len(s.Cargos)) {
		for _, c := range s.Cargos {
			w.member()
			w.open('{')
			w.str("Name", c.Name)
			w.vec("Pos", c.Pos)
			w.num("Mass", c.Mass)
			w.int("Hooks", c.Hooks)
			w.close('}')
		}
		w.close(']')
	}
	if w.array("Phases", s.Phases == nil, len(s.Phases)) {
		for i := range s.Phases {
			w.member()
			w.phase(&s.Phases[i])
		}
		w.close(']')
	}
	w.key("Score")
	w.open('{')
	w.num("Initial", s.Score.Initial)
	w.num("BarHit", s.Score.BarHit)
	w.num("SafetyAlarm", s.Score.SafetyAlarm)
	w.num("OvertimePer10", s.Score.OvertimePer10)
	w.num("PassMark", s.Score.PassMark)
	w.close('}')
	w.key("Wind")
	w.open('{')
	w.vec("Mean", s.Wind.Mean)
	w.num("Gust", s.Wind.Gust)
	w.num("Period", s.Wind.Period)
	w.close('}')
	w.num("Visibility", s.Visibility)
	w.close('}')
}

func (w *specWriter) course(c *Course) {
	w.open('{')
	w.vec("Start", c.Start)
	w.num("StartYaw", c.StartYaw)
	w.vec("DriveTarget", c.DriveTarget)
	w.num("DriveRadius", c.DriveRadius)
	w.vec("Circle", c.Circle)
	w.num("CircleRadius", c.CircleRadius)
	w.num("CargoMass", c.CargoMass)
	w.points("Waypoints", c.Waypoints)
	w.num("WaypointRadius", c.WaypointRadius)
	if w.array("Bars", c.Bars == nil, len(c.Bars)) {
		for _, b := range c.Bars {
			w.member()
			w.open('{')
			w.str("Name", b.Name)
			w.vec("Pos", b.Pos)
			w.vec("Half", b.Half)
			w.num("Yaw", b.Yaw)
			w.close('}')
		}
		w.close(']')
	}
	w.num("ParTime", c.ParTime)
	w.close('}')
}

func (w *specWriter) phase(p *PhaseSpec) {
	w.open('{')
	w.str("Name", p.Name)
	w.key("Kind") // Validate admitted only named kinds
	w.b = append(w.b, '"')
	w.b = append(w.b, p.Kind.String()...)
	w.b = append(w.b, '"')
	w.vec("Target", p.Target)
	w.num("Radius", p.Radius)
	w.points("Waypoints", p.Waypoints)
	w.int("Cargo", p.Cargo)
	w.int("Crane", p.Crane)
	w.bool("Tandem", p.Tandem)
	w.int("Next", p.Next)
	w.close('}')
}

// UnmarshalSpec decodes a spec from JSON and validates it. Unknown fields
// are rejected — a typoed field name in a hand-written scenario file must
// not silently become the zero value.
func UnmarshalSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decode spec: %w", err)
	}
	// One spec per file: trailing data (a second concatenated object, a
	// stray JSONL paste) must fail loudly, not load half the file.
	if dec.More() {
		return Spec{}, fmt.Errorf("scenario: trailing data after spec %q", s.Name)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads one scenario file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := UnmarshalSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// LoadSpecDir reads every *.json file of a directory as a scenario, in
// filename order, and rejects duplicate scenario names across files.
func LoadSpecDir(dir string) ([]Spec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("scenario: no *.json files in %s", dir)
	}
	specs := make([]Spec, 0, len(files))
	seen := make(map[string]string, len(files))
	for _, f := range files {
		s, err := LoadSpec(filepath.Join(dir, f))
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[s.Name]; dup {
			return nil, fmt.Errorf("scenario: %s and %s both define %q", prev, f, s.Name)
		}
		seen[s.Name] = f
		specs = append(specs, s)
	}
	return specs, nil
}
