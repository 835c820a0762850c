package journal

import (
	"sync"
	"time"

	"serd/internal/telemetry"
)

// DefaultPhases are the span names the instrumented recorder mirrors into
// phase_start/phase_end journal events: the pipeline's coarse stage
// boundaries, not per-entity micro-spans.
var DefaultPhases = map[string]bool{
	"core.s1":                true,
	"core.s2":                true,
	"core.s3":                true,
	"textsynth.train":        true,
	"textsynth.train.bucket": true,
	"gan.train":              true,
}

// Instrument wraps a telemetry.Recorder so that the journal receives the
// durable subset of the metric stream alongside it: coarse phase spans
// become phase_start/phase_end events, and the live "dp.epsilon" gauge
// (published by dp.RDPAccountant.RecordEpsilon after every noisy step)
// becomes epsilon_checkpoint events. Everything still reaches inner
// unchanged, so the live inspector and run report see exactly what they
// would without a journal. The wrapper does no RNG work — instrumented and
// bare runs with the same seed produce identical datasets.
func Instrument(j *Journal, inner telemetry.Recorder) telemetry.Recorder {
	inner = telemetry.OrNop(inner)
	if j == nil {
		return inner
	}
	return &teeRecorder{j: j, inner: inner, phases: DefaultPhases}
}

// InstrumentResumed is Instrument for a journal resumed across a crash
// seam. open counts, per phase name, the phase_start events in the surviving
// journal prefix with no matching phase_end (see OpenPhases): the resumed
// pipeline re-enters those phases and would journal a second phase_start,
// breaking the one-start-one-end pairing audit expects. The wrapper
// suppresses that many re-emitted starts per name; the phase_end (and every
// later start) journals normally, closing the pre-crash event.
func InstrumentResumed(j *Journal, inner telemetry.Recorder, open map[string]int) telemetry.Recorder {
	inner = telemetry.OrNop(inner)
	if j == nil {
		return inner
	}
	suppress := make(map[string]int, len(open))
	for name, n := range open {
		suppress[name] = n
	}
	return &teeRecorder{j: j, inner: inner, phases: DefaultPhases, suppress: suppress}
}

type teeRecorder struct {
	j      *Journal
	inner  telemetry.Recorder
	phases map[string]bool

	mu        sync.Mutex
	lastDelta float64        // most recent "dp.delta" gauge, paired with epsilon
	suppress  map[string]int // remaining phase_starts to swallow after resume
}

func (t *teeRecorder) Add(name string, delta float64) { t.inner.Add(name, delta) }

func (t *teeRecorder) Observe(name string, value float64) { t.inner.Observe(name, value) }

func (t *teeRecorder) Set(name string, value float64) {
	t.inner.Set(name, value)
	switch name {
	case "dp.delta":
		// RecordEpsilon publishes δ before ε so the pair journals together.
		t.mu.Lock()
		t.lastDelta = value
		t.mu.Unlock()
	case "dp.epsilon":
		t.mu.Lock()
		delta := t.lastDelta
		t.mu.Unlock()
		t.j.EpsilonCheckpoint("dp.sgd", value, delta)
	}
}

func (t *teeRecorder) StartSpan(name string) telemetry.Span {
	span := t.inner.StartSpan(name)
	if !t.phases[name] {
		return span
	}
	t.mu.Lock()
	skip := t.suppress[name] > 0
	if skip {
		t.suppress[name]--
	}
	t.mu.Unlock()
	if !skip {
		t.j.PhaseStart(name)
	}
	return &teeSpan{t: t, name: name, inner: span, t0: time.Now()}
}

type teeSpan struct {
	t     *teeRecorder
	name  string
	inner telemetry.Span
	t0    time.Time
}

func (s *teeSpan) End() {
	s.inner.End()
	s.t.j.PhaseEnd(s.name, time.Since(s.t0).Seconds())
}
