package audio

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"codsim/internal/fom"
	"codsim/internal/mathx"
)

func newMixer(t *testing.T) *Mixer {
	t.Helper()
	m, err := NewMixer(SynthesizeAssets(1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func rms[T float32 | float64](s []T) float64 {
	var sum float64
	for _, v := range s {
		sum += float64(v) * float64(v)
	}
	return math.Sqrt(sum / float64(len(s)))
}

func TestSynthesizeAssets(t *testing.T) {
	bank := SynthesizeAssets(1)
	wanted := []fom.Sound{
		fom.SoundEngineStart, fom.SoundEngineLoop, fom.SoundEngineStop,
		fom.SoundCollision, fom.SoundAlarm, fom.SoundHoistMotor, fom.SoundBackground,
	}
	for _, s := range wanted {
		clip, ok := bank[s]
		if !ok {
			t.Fatalf("missing sound %d", s)
		}
		if clip.Duration() < 0.3 {
			t.Errorf("%s too short: %v s", clip.Name, clip.Duration())
		}
		if r := rms(clip.Samples); r < 0.01 || r > 1 {
			t.Errorf("%s rms = %v", clip.Name, r)
		}
		for i, v := range clip.Samples {
			if math.Abs(float64(v)) > 1.2 {
				t.Fatalf("%s sample %d = %v out of range", clip.Name, i, v)
			}
		}
	}
	// Deterministic under the same seed, every sample of every clip.
	sameBank(t, SynthesizeAssets(1), bank)
}

// sameBank fails unless got holds want's sounds with the same names and
// every sample bit for bit.
func sameBank(t *testing.T, got, want map[fom.Sound]*Clip) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("bank holds %d sounds, want %d", len(got), len(want))
	}
	for s, w := range want {
		g, ok := got[s]
		if !ok {
			t.Fatalf("missing sound %d", s)
		}
		if g.Name != w.Name || len(g.Samples) != len(w.Samples) {
			t.Fatalf("sound %d: %s with %d samples, want %s with %d", s, g.Name, len(g.Samples), w.Name, len(w.Samples))
		}
		for i := range w.Samples {
			if math.Float32bits(g.Samples[i]) != math.Float32bits(w.Samples[i]) {
				t.Fatalf("%s sample %d = %v, want %v", w.Name, i, g.Samples[i], w.Samples[i])
			}
		}
	}
}

// TestDefaultBank holds the shared bank to a fresh SynthesizeAssets(1), bit
// for bit, and to one instance: a second call returns the same map with the
// same clips.
func TestDefaultBank(t *testing.T) {
	bank := DefaultBank()
	sameBank(t, bank, SynthesizeAssets(1))
	again := DefaultBank()
	if reflect.ValueOf(again).Pointer() != reflect.ValueOf(bank).Pointer() {
		t.Error("second DefaultBank call returned another map")
	}
	for s, clip := range bank {
		if again[s] != clip {
			t.Errorf("sound %d: second DefaultBank call returned another *Clip", s)
		}
	}
}

func TestNewMixerValidation(t *testing.T) {
	if _, err := NewMixer(nil); err == nil {
		t.Error("empty bank accepted")
	}
}

func TestOneShotPlaysAndRetires(t *testing.T) {
	m := newMixer(t)
	m.Handle(fom.AudioEvent{Sound: fom.SoundCollision, Gain: 1})
	if m.Active() != 1 {
		t.Fatalf("active = %d", m.Active())
	}
	out := make([]float64, SampleRate) // 1 s > 0.6 s clip
	m.Render(out)
	if rms(out) < 0.001 {
		t.Error("one-shot produced silence")
	}
	if m.Active() != 0 {
		t.Errorf("one-shot not retired: active = %d", m.Active())
	}
	// Subsequent render is silent.
	m.Render(out)
	if rms(out) != 0 {
		t.Error("retired voice still audible")
	}
}

func TestLoopContinues(t *testing.T) {
	m := newMixer(t)
	m.Handle(fom.AudioEvent{Sound: fom.SoundEngineLoop, Gain: 1, Loop: true})
	out := make([]float64, SampleRate*3) // 3 s > 1.5 s clip
	m.Render(out)
	if m.Active() != 1 {
		t.Fatalf("loop retired: active = %d", m.Active())
	}
	// The tail (after wrap) still carries signal.
	if rms(out[len(out)-SampleRate/10:]) < 0.01 {
		t.Error("loop went silent after wrap")
	}
	// Stop the loop.
	m.Handle(fom.AudioEvent{Sound: fom.SoundEngineLoop, Stop: true})
	if m.Active() != 0 {
		t.Errorf("loop survived stop: active = %d", m.Active())
	}
}

func TestLoopRestartReplaces(t *testing.T) {
	m := newMixer(t)
	m.Handle(fom.AudioEvent{Sound: fom.SoundEngineLoop, Gain: 0.5, Loop: true})
	m.Handle(fom.AudioEvent{Sound: fom.SoundEngineLoop, Gain: 1, Loop: true})
	if m.Active() != 1 {
		t.Errorf("duplicate loop voices: %d", m.Active())
	}
}

func TestUnknownSoundIgnored(t *testing.T) {
	m := newMixer(t)
	m.Handle(fom.AudioEvent{Sound: fom.Sound(999), Gain: 1})
	if m.Active() != 0 {
		t.Error("unknown sound started a voice")
	}
}

func TestDistanceAttenuation(t *testing.T) {
	level := func(dist float64) float64 {
		m := newMixer(t)
		m.SetListener(mathx.V3(0, 0, 0))
		m.Handle(fom.AudioEvent{
			Sound:    fom.SoundCollision,
			Gain:     1,
			Position: mathx.V3(dist, 0, 0),
		})
		out := make([]float64, SampleRate/5)
		m.Render(out)
		return rms(out)
	}
	near := level(1)
	far := level(60)
	if far >= near/2 {
		t.Errorf("attenuation too weak: near rms %v, far rms %v", near, far)
	}
	// Zero position means non-positional (full volume).
	m := newMixer(t)
	m.Handle(fom.AudioEvent{Sound: fom.SoundCollision, Gain: 1})
	out := make([]float64, SampleRate/5)
	m.Render(out)
	if rms(out) < near*0.9 {
		t.Error("non-positional event attenuated")
	}
}

func TestPolyphonyEviction(t *testing.T) {
	m := newMixer(t)
	for i := 0; i < MaxVoices+5; i++ {
		m.Handle(fom.AudioEvent{Sound: fom.SoundCollision, Gain: float64(i+1) / float64(MaxVoices+5)})
	}
	if m.Active() != MaxVoices {
		t.Errorf("active = %d, want cap %d", m.Active(), MaxVoices)
	}
	if _, dropped := m.Stats(); dropped != 5 {
		t.Errorf("dropped = %d, want 5", dropped)
	}
}

func TestMixClipsSoftly(t *testing.T) {
	m := newMixer(t)
	for i := 0; i < 10; i++ {
		m.Handle(fom.AudioEvent{Sound: fom.SoundAlarm, Gain: 1, Loop: true})
	}
	// Loops of the same id dedupe; add distinct loud sounds instead.
	m.Handle(fom.AudioEvent{Sound: fom.SoundEngineLoop, Gain: 1, Loop: true})
	m.Handle(fom.AudioEvent{Sound: fom.SoundHoistMotor, Gain: 1, Loop: true})
	m.Handle(fom.AudioEvent{Sound: fom.SoundBackground, Gain: 1, Loop: true})
	out := make([]float64, SampleRate/2)
	m.Render(out)
	for i, v := range out {
		if math.Abs(v) > 1 {
			t.Fatalf("sample %d = %v beyond [-1,1]", i, v)
		}
	}
}

func TestWriteWAV(t *testing.T) {
	pcm := make([]float64, 100)
	for i := range pcm {
		pcm[i] = math.Sin(float64(i) / 10)
	}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, pcm); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != 44+200 {
		t.Fatalf("wav length = %d, want 244", len(b))
	}
	if string(b[0:4]) != "RIFF" || string(b[8:12]) != "WAVE" || string(b[36:40]) != "data" {
		t.Error("wav chunk markers wrong")
	}
}

func BenchmarkMixerRender(b *testing.B) {
	m, err := NewMixer(SynthesizeAssets(1))
	if err != nil {
		b.Fatal(err)
	}
	m.Handle(fom.AudioEvent{Sound: fom.SoundEngineLoop, Gain: 0.8, Loop: true})
	m.Handle(fom.AudioEvent{Sound: fom.SoundBackground, Gain: 0.4, Loop: true})
	m.Handle(fom.AudioEvent{Sound: fom.SoundHoistMotor, Gain: 0.5, Loop: true})
	out := make([]float64, SampleRate/60) // one visual frame of audio
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Render(out)
	}
}
