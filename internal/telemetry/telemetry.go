// Package telemetry is the stdlib-only observability substrate of the SERD
// pipeline: counters, gauges, log-bucketed histograms and phase-scoped span
// timers behind a Recorder interface with an allocation-free no-op default.
//
// Every long-running stage threads a Recorder through its options
// (core.Options.Metrics, gmm.FitOptions.Metrics, textsynth
// TransformerOptions.Metrics, dp.SGD.Metrics, experiments.Config.Metrics).
// The concrete Registry implementation aggregates everything and exposes it
// two ways:
//
//   - a live HTTP inspector (ServeWithExtra): /metrics.json (snapshot),
//     /metrics (Prometheus text exposition), /events (live SSE stream) and
//     /debug/pprof/,
//   - a structured run-report JSON written next to the output dataset
//     (WriteRunReport).
//
// Metric names are dotted paths, "<package>.<phase>.<signal>", e.g.
// "core.s2.rejected.distribution". See DESIGN.md for the full name index.
package telemetry

// Recorder receives pipeline metrics. Implementations must be safe for
// concurrent use: the synthesis loop records while the HTTP inspector reads.
type Recorder interface {
	// Add increments the named counter. Counters are monotonically
	// increasing totals (attempts, rejections, EM iterations).
	Add(name string, delta float64)
	// Set updates the named gauge — a point-in-time value that may move in
	// both directions (current JSD, entities/sec, epsilon spent).
	Set(name string, value float64)
	// Observe folds a value into the named log-bucketed histogram
	// (per-entity attempt counts, training losses, gradient norms).
	Observe(name string, value float64)
	// StartSpan opens a phase timer; the returned Span's End records the
	// elapsed wall-clock under the name. Spans of the same name aggregate.
	StartSpan(name string) Span
}

// Span is an in-flight phase timer.
type Span interface {
	// End stops the timer and records the phase duration.
	End()
}

// Nop is the default Recorder: every method is an allocation-free no-op,
// cheap enough for per-attempt calls on the S2 hot loop.
var Nop Recorder = nopRecorder{}

type nopRecorder struct{}
type nopSpan struct{}

func (nopRecorder) Add(string, float64)     {}
func (nopRecorder) Set(string, float64)     {}
func (nopRecorder) Observe(string, float64) {}

// StartSpan returns a shared zero-size span; converting a zero-size value
// to an interface does not allocate.
func (nopRecorder) StartSpan(string) Span { return nopSpan{} }

func (nopSpan) End() {}

// OrNop normalizes an optional Recorder field: nil becomes Nop, so call
// sites never need a nil check.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop
	}
	return r
}

// Enabled reports whether r actually records — the guard for metric work
// that is itself costly (fmt.Sprintf'd names, derived values).
func Enabled(r Recorder) bool {
	return r != nil && r != Nop
}

// RecordParallel records a parallel region's outcome against a phase:
// "<phase>.parallel.speedup" (busy time over wall time — the realized
// parallel speedup, 1.0 when serial) and "<phase>.parallel.utilization"
// (speedup over the worker count — the fraction of the pool kept busy).
// Used by the worker pool after every fanned-out region.
func RecordParallel(r Recorder, phase string, busySeconds, wallSeconds float64, workers int) {
	if phase == "" || wallSeconds <= 0 || workers <= 0 {
		return
	}
	r = OrNop(r)
	speedup := busySeconds / wallSeconds
	r.Set(phase+".parallel.speedup", speedup)
	r.Set(phase+".parallel.utilization", speedup/float64(workers))
}
