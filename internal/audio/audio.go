// Package audio is the audio module of §3.7, replacing the paper's
// Microsoft DirectSound with a pure-software PCM mixer: it produces the
// static background bed, the looped engine and hoist-motor noise, and the
// dynamic one-shot effects (collision bangs, alarm beeps) triggered by
// AudioEvent messages from the other LPs. Output is mono float64 PCM that
// the examples can export as a WAV file. The sound bank is stored as
// float32, half the memory of float64 and still finer than the 16-bit WAV
// output can resolve; the mixer accumulates in float64.
package audio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"

	"codsim/internal/fom"
	"codsim/internal/mathx"
)

// SampleRate is the mixer's output rate in samples per second.
const SampleRate = 44100

// Clip is a mono PCM asset.
type Clip struct {
	Name    string
	Samples []float32 // [-1, 1]
}

// Duration returns the clip length in seconds.
func (c *Clip) Duration() float64 { return float64(len(c.Samples)) / SampleRate }

// SynthesizeAssets builds the simulator's sound bank procedurally (no
// sample files ship with the repository). Deterministic under seed; each
// call builds a fresh bank.
func SynthesizeAssets(seed int64) map[fom.Sound]*Clip {
	rng := rand.New(rand.NewSource(seed))
	return map[fom.Sound]*Clip{
		fom.SoundEngineStart: engineStart(rng),
		fom.SoundEngineLoop:  engineLoop(rng),
		fom.SoundEngineStop:  engineStop(rng),
		fom.SoundCollision:   collisionBang(rng),
		fom.SoundAlarm:       alarmBeep(),
		fom.SoundHoistMotor:  hoistMotor(rng),
		fom.SoundBackground:  backgroundBed(rng),
	}
}

var (
	defaultBankOnce sync.Once
	defaultBank     map[fom.Sound]*Clip
)

// DefaultBank returns SynthesizeAssets(1), built on the first call and
// shared by every later one: the same map and the same *Clip values, so a
// process that boots many federations synthesizes its sound bank once. The
// bank and its clips are shared across goroutines and must be treated as
// read-only.
func DefaultBank() map[fom.Sound]*Clip {
	defaultBankOnce.Do(func() { defaultBank = SynthesizeAssets(1) })
	return defaultBank
}

func samples(seconds float64) []float32 {
	return make([]float32, int(seconds*SampleRate))
}

// engineLoop is a diesel-ish bed: low harmonic stack plus combustion noise.
func engineLoop(rng *rand.Rand) *Clip {
	out := samples(1.5)
	lp := 0.0
	for i := range out {
		t := float64(i) / SampleRate
		v := 0.45*math.Sin(2*math.Pi*38*t) +
			0.28*math.Sin(2*math.Pi*76*t+0.7) +
			0.16*math.Sin(2*math.Pi*114*t+1.9)
		noise := rng.Float64()*2 - 1
		lp += (noise - lp) * 0.12
		out[i] = float32(0.75*v + 0.25*lp)
	}
	fadeLoopSeam(out)
	return &Clip{Name: "engine-loop", Samples: out}
}

func engineStart(rng *rand.Rand) *Clip {
	out := samples(1.2)
	lp := 0.0
	for i := range out {
		t := float64(i) / SampleRate
		f := 12 + 30*t/1.2 // cranking sweep up
		noise := rng.Float64()*2 - 1
		lp += (noise - lp) * 0.2
		env := math.Min(1, t/0.15)
		out[i] = float32(env * (0.5*math.Sin(2*math.Pi*f*t*8) + 0.5*lp))
	}
	return &Clip{Name: "engine-start", Samples: out}
}

func engineStop(rng *rand.Rand) *Clip {
	out := samples(0.9)
	for i := range out {
		t := float64(i) / SampleRate
		f := 38 * (1 - t/1.1)
		env := 1 - t/0.9
		out[i] = float32(env * (0.6*math.Sin(2*math.Pi*f*t*4) + 0.2*(rng.Float64()*2-1)))
	}
	return &Clip{Name: "engine-stop", Samples: out}
}

func collisionBang(rng *rand.Rand) *Clip {
	out := samples(0.6)
	lp := 0.0
	for i := range out {
		t := float64(i) / SampleRate
		noise := rng.Float64()*2 - 1
		lp += (noise - lp) * 0.4
		env := math.Exp(-t * 9)
		out[i] = float32(env * (0.7*lp + 0.3*math.Sin(2*math.Pi*130*t)*math.Exp(-t*16)))
	}
	return &Clip{Name: "collision", Samples: out}
}

func alarmBeep() *Clip {
	out := samples(1.0)
	for i := range out {
		t := float64(i) / SampleRate
		gate := 0.0
		if math.Mod(t, 0.25) < 0.12 {
			gate = 1
		}
		out[i] = float32(0.5 * gate * math.Sin(2*math.Pi*880*t))
	}
	return &Clip{Name: "alarm", Samples: out}
}

func hoistMotor(rng *rand.Rand) *Clip {
	out := samples(0.8)
	for i := range out {
		t := float64(i) / SampleRate
		out[i] = float32(0.35*math.Sin(2*math.Pi*210*t) +
			0.18*math.Sin(2*math.Pi*420*t) +
			0.1*(rng.Float64()*2-1))
	}
	fadeLoopSeam(out)
	return &Clip{Name: "hoist-motor", Samples: out}
}

func backgroundBed(rng *rand.Rand) *Clip {
	out := samples(2.0)
	lp := 0.0
	for i := range out {
		noise := rng.Float64()*2 - 1
		lp += (noise - lp) * 0.02 // deep low-pass: distant site rumble
		out[i] = float32(0.6 * lp)
	}
	fadeLoopSeam(out)
	return &Clip{Name: "background", Samples: out}
}

// fadeLoopSeam crossfades the clip tail into its head so loops do not click.
func fadeLoopSeam(s []float32) {
	n := len(s) / 50
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n)
		s[len(s)-n+i] = float32(float64(s[len(s)-n+i])*(1-t) + float64(s[i])*t)
	}
}

// voice is one playing instance of a clip.
type voice struct {
	clip *Clip
	pos  int
	gain float64
	loop bool
	id   fom.Sound
}

// Mixer mixes active voices into PCM buffers. Safe for concurrent use: the
// audio LP renders from its tick loop while CB callbacks inject events.
type Mixer struct {
	mu       sync.Mutex
	bank     map[fom.Sound]*Clip
	voices   []*voice
	listener mathx.Vec3
	started  int64
	dropped  int64
}

// MaxVoices bounds simultaneous polyphony; the quietest surplus voice is
// evicted, like period sound hardware did.
const MaxVoices = 16

// NewMixer builds a mixer over the given sound bank. The mixer only reads
// the bank and its clips, so one bank (DefaultBank) may back many mixers;
// the caller must treat it as read-only while any of them is in use.
func NewMixer(bank map[fom.Sound]*Clip) (*Mixer, error) {
	if len(bank) == 0 {
		return nil, fmt.Errorf("audio: empty sound bank")
	}
	return &Mixer{bank: bank}, nil
}

// SetListener places the listener (the cab) for distance attenuation.
func (m *Mixer) SetListener(pos mathx.Vec3) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.listener = pos
}

// Handle processes one AudioEvent: start a loop, stop a loop, or fire a
// one-shot, with gain attenuated by the event's distance to the listener.
func (m *Mixer) Handle(ev fom.AudioEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ev.Stop {
		kept := m.voices[:0]
		for _, v := range m.voices {
			if !(v.id == ev.Sound && v.loop) {
				kept = append(kept, v)
			}
		}
		m.voices = kept
		return
	}
	clip, ok := m.bank[ev.Sound]
	if !ok {
		return
	}
	gain := mathx.Clamp(ev.Gain, 0, 1) * m.attenuation(ev.Position)
	if ev.Loop {
		// A loop restart replaces the existing loop of the same sound.
		for _, v := range m.voices {
			if v.id == ev.Sound && v.loop {
				v.gain = gain
				return
			}
		}
	}
	if len(m.voices) >= MaxVoices {
		m.evictQuietest()
	}
	m.voices = append(m.voices, &voice{clip: clip, gain: gain, loop: ev.Loop, id: ev.Sound})
	m.started++
}

func (m *Mixer) attenuation(src mathx.Vec3) float64 {
	if src == (mathx.Vec3{}) {
		return 1 // non-positional event
	}
	d := src.Dist(m.listener)
	return 1 / (1 + d*d/400) // -6 dB at 20 m
}

func (m *Mixer) evictQuietest() {
	quietest := 0
	for i, v := range m.voices {
		if v.gain < m.voices[quietest].gain {
			quietest = i
		}
	}
	m.voices = append(m.voices[:quietest], m.voices[quietest+1:]...)
	m.dropped++
}

// Active returns the number of playing voices.
func (m *Mixer) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.voices)
}

// Stats returns how many voices were started and evicted.
func (m *Mixer) Stats() (started, dropped int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.started, m.dropped
}

// Render mixes the next len(out) samples into out (overwriting it) and
// retires finished one-shots.
func (m *Mixer) Render(out []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range out {
		out[i] = 0
	}
	kept := m.voices[:0]
	for _, v := range m.voices {
		alive := true
		for i := range out {
			if v.pos >= len(v.clip.Samples) {
				if !v.loop {
					alive = false
					break
				}
				v.pos = 0
			}
			out[i] += float64(v.clip.Samples[v.pos]) * v.gain
			v.pos++
		}
		if alive {
			kept = append(kept, v)
		}
	}
	m.voices = kept
	// Soft clip to [-1, 1].
	for i, s := range out {
		out[i] = math.Tanh(s)
	}
}

// WriteWAV writes mono float64 PCM as a 16-bit little-endian WAV stream.
func WriteWAV(w io.Writer, pcm []float64) error {
	dataLen := uint32(len(pcm) * 2)
	var hdr [44]byte
	copy(hdr[0:4], "RIFF")
	binary.LittleEndian.PutUint32(hdr[4:8], 36+dataLen)
	copy(hdr[8:12], "WAVE")
	copy(hdr[12:16], "fmt ")
	binary.LittleEndian.PutUint32(hdr[16:20], 16)
	binary.LittleEndian.PutUint16(hdr[20:22], 1) // PCM
	binary.LittleEndian.PutUint16(hdr[22:24], 1) // mono
	binary.LittleEndian.PutUint32(hdr[24:28], SampleRate)
	binary.LittleEndian.PutUint32(hdr[28:32], SampleRate*2)
	binary.LittleEndian.PutUint16(hdr[32:34], 2)
	binary.LittleEndian.PutUint16(hdr[34:36], 16)
	copy(hdr[36:40], "data")
	binary.LittleEndian.PutUint32(hdr[40:44], dataLen)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("audio: wav header: %w", err)
	}
	buf := make([]byte, len(pcm)*2)
	for i, s := range pcm {
		v := int16(mathx.Clamp(s, -1, 1) * 32767)
		binary.LittleEndian.PutUint16(buf[i*2:], uint16(v))
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("audio: wav data: %w", err)
	}
	return nil
}
