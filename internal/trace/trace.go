// Package trace layers a hierarchical span tree on top of the flat
// telemetry.Recorder phase timers. A Tracer assigns every span an id and
// a parent (pipeline stage → chunk / EM-iteration / DP-minibatch /
// GAN-step), annotates spans with attributes (worker id, chunk range,
// accepted counts, ε after step), and publishes each boundary as an event
// on a bounded lock-free telemetry.Bus. Consumers — the trace-file
// exporter, the /events SSE stream, and the runtime sampler's metric
// deltas — all read the same bus.
//
// The tracer is strictly passive: it never touches the journal, the RNG
// stream, or any synthesis state, so arming it cannot change dataset or
// journal bytes. Disarmed (nil *Tracer) every entry point is an
// allocation-free no-op, preserving the S2/S3 hot-loop contract.
package trace

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"serd/internal/telemetry"
)

// Tracer builds the span tree. All methods are safe for concurrent use
// and safe on a nil receiver (nil = tracing disarmed).
type Tracer struct {
	bus *telemetry.Bus
	ids atomic.Uint64

	mu    sync.Mutex
	stack []uint64 // open phase span ids, outermost first
}

// New returns a Tracer publishing onto bus. A nil bus yields a nil
// Tracer, the disarmed state.
func New(bus *telemetry.Bus) *Tracer {
	if bus == nil {
		return nil
	}
	return &Tracer{bus: bus}
}

// Int builds an integer-valued attribute.
func Int(key string, v int) telemetry.Attr {
	return telemetry.Attr{Key: key, Val: strconv.Itoa(v)}
}

// Float builds a float-valued attribute.
func Float(key string, v float64) telemetry.Attr {
	return telemetry.Attr{Key: key, Val: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Phase is an open hierarchical phase span (a pipeline stage or a named
// training phase). End on a nil Phase is a no-op.
type Phase struct {
	tr   *Tracer
	id   uint64
	name string
	t0   time.Time
}

// StartPhase opens a phase span nested under the currently open phase and
// publishes its start. Used by the recorder wrapper for every
// Recorder.StartSpan, and directly by core's stage sequence for
// trace-only coverage of silent stages.
func (t *Tracer) StartPhase(name string) *Phase {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	t.mu.Lock()
	var parent uint64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	now := time.Now()
	t.bus.Publish(&telemetry.BusEvent{
		Kind: "phase_start", Name: name, ID: id, Parent: parent, T: now.UnixNano(),
	})
	return &Phase{tr: t, id: id, name: name, t0: now}
}

// End closes the phase and publishes the end event with its duration.
func (p *Phase) End() {
	if p == nil {
		return
	}
	t := p.tr
	t.mu.Lock()
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == p.id {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
	now := time.Now()
	t.bus.Publish(&telemetry.BusEvent{
		Kind: "phase_end", Name: p.name, ID: p.id, T: now.UnixNano(),
		Dur: now.Sub(p.t0).Nanoseconds(),
	})
}

// Child is an open leaf span — a worker chunk, one EM iteration, one DP
// minibatch, one GAN step. Unlike phases it is reported as a single
// complete event at End (child spans from pool workers finish out of
// order; a start/end pair per chunk would double the bus traffic for no
// analytical gain). End on a nil Child is a no-op.
type Child struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	t0     time.Time
	attrs  []telemetry.Attr
}

// Child opens a leaf span under the innermost open phase. attrs recorded
// here are merged with any passed to End.
func (t *Tracer) Child(name string, attrs ...telemetry.Attr) *Child {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	t.mu.Lock()
	var parent uint64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.mu.Unlock()
	return &Child{tr: t, id: id, parent: parent, name: name, t0: time.Now(), attrs: attrs}
}

// End completes the child span and publishes it.
func (c *Child) End(attrs ...telemetry.Attr) {
	if c == nil {
		return
	}
	now := time.Now()
	all := c.attrs
	if len(attrs) > 0 {
		all = append(append([]telemetry.Attr{}, c.attrs...), attrs...)
	}
	c.tr.bus.Publish(&telemetry.BusEvent{
		Kind: "span", Name: c.name, ID: c.id, Parent: c.parent,
		T: c.t0.UnixNano(), Dur: now.Sub(c.t0).Nanoseconds(), Attrs: all,
	})
}

// tracerProvider is how a wrapped recorder exposes its Tracer to
// downstream packages without widening any options struct.
type tracerProvider interface {
	Tracer() *Tracer
}

// FromRecorder recovers the Tracer from a recorder chain built with Wrap;
// nil when the chain carries no tracer (the disarmed common case).
func FromRecorder(r telemetry.Recorder) *Tracer {
	if tp, ok := r.(tracerProvider); ok {
		return tp.Tracer()
	}
	return nil
}

// Wrap layers tr over inner: StartSpan opens both the inner flat phase
// timer and a hierarchical trace phase, and the chain exposes tr via
// FromRecorder. Wrap must be the OUTERMOST layer of the recorder chain.
// A nil tr returns inner unchanged — the disarmed path adds zero
// overhead and zero allocations.
func Wrap(tr *Tracer, inner telemetry.Recorder) telemetry.Recorder {
	if tr == nil {
		return telemetry.OrNop(inner)
	}
	return &tracedRecorder{inner: telemetry.OrNop(inner), tr: tr}
}

type tracedRecorder struct {
	inner telemetry.Recorder
	tr    *Tracer
}

func (t *tracedRecorder) Tracer() *Tracer            { return t.tr }
func (t *tracedRecorder) Add(name string, d float64) { t.inner.Add(name, d) }
func (t *tracedRecorder) Set(name string, v float64) { t.inner.Set(name, v) }
func (t *tracedRecorder) Observe(name string, v float64) {
	t.inner.Observe(name, v)
}

// StartSpan opens the trace phase before the inner span and tracedSpan.End
// closes it after, so the phase encloses whatever the inner chain does at
// the boundary — the journal tee's durable phase_start and phase_end
// writes, each an fsync — and no stage boundary falls outside the trace's
// stages.
func (t *tracedRecorder) StartSpan(name string) telemetry.Span {
	ph := t.tr.StartPhase(name)
	return &tracedSpan{inner: t.inner.StartSpan(name), ph: ph}
}

type tracedSpan struct {
	inner telemetry.Span
	ph    *Phase
}

func (s *tracedSpan) End() {
	s.inner.End()
	s.ph.End()
}
