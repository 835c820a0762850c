// Package parallel provides the bounded, deterministic worker pool behind
// the S2/S3 hot path. The pool's contract is that parallelism is an
// execution parameter, never a semantic one: a computation fanned out
// through Pool.Run must produce bit-identical results at any worker count,
// including 1. The package enforces the half of that contract it can —
// fixed contiguous index chunking, per-index result slots, completion
// barriers — and SplitSeeds supplies the other half for Monte-Carlo
// callers: pre-split RNG substreams keyed by stripe index rather than by
// worker, so the sample stream is independent of how stripes land on
// workers.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"serd/internal/telemetry"
	"serd/internal/trace"
)

// Pool is a bounded worker pool. The zero worker count and the nil pool
// both degrade to inline execution, so callers can thread an optional pool
// unconditionally.
type Pool struct {
	workers int
	rec     telemetry.Recorder
	tr      *trace.Tracer
}

// New returns a pool bounded at workers goroutines per Run call. workers
// <= 0 selects GOMAXPROCS. The recorder (which may be nil) receives a
// "parallel.workers" gauge plus per-phase speedup/utilization gauges from
// Run; recording never affects the computation. When the recorder chain
// carries a trace.Tracer, every fanned-out chunk additionally emits a
// child span tagged with its worker id and index range — the tracer is
// resolved once here, so the disarmed Run path pays a single nil check.
func New(workers int, rec telemetry.Recorder) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tr := trace.FromRecorder(rec)
	rec = telemetry.OrNop(rec)
	rec.Set("parallel.workers", float64(workers))
	return &Pool{workers: workers, rec: rec, tr: tr}
}

// Workers reports the pool's bound. A nil pool is a serial pool of one.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// ForEach is Run without telemetry.
func (p *Pool) ForEach(n int, fn func(i int)) { p.Run("", n, fn) }

// Run invokes fn(i) for every i in [0, n), fanning the index range out
// over the pool's workers in fixed contiguous chunks (worker c gets
// [c·n/w, (c+1)·n/w)). fn must be safe for concurrent invocation on
// distinct indices; writes must go to per-index slots. Run returns only
// after every index completes. When phase is non-empty, per-phase
// parallel-speedup and utilization gauges are recorded against it.
func (p *Pool) Run(phase string, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w == 1 {
		var span *trace.Child
		if p != nil && p.tr != nil && phase != "" {
			span = p.tr.Child(phase+".chunk", trace.Int("worker", 0), trace.Int("lo", 0), trace.Int("hi", n))
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		span.End()
		p.record(phase, time.Since(start), time.Since(start))
		return
	}
	start := time.Now()
	var busyNS atomic.Int64
	chunk := func(c, lo, hi int) {
		var span *trace.Child
		if p.tr != nil && phase != "" {
			span = p.tr.Child(phase+".chunk", trace.Int("worker", c), trace.Int("lo", lo), trace.Int("hi", hi))
		}
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		span.End()
		busyNS.Add(int64(time.Since(t0)))
	}
	// Chunk 0 runs on the calling goroutine, which would otherwise only
	// wait; the other w-1 chunks each get a goroutine.
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for c := 1; c < w; c++ {
		go func(c, lo, hi int) {
			defer wg.Done()
			chunk(c, lo, hi)
		}(c, c*n/w, (c+1)*n/w)
	}
	chunk(0, 0, n/w)
	wg.Wait()
	p.record(phase, time.Duration(busyNS.Load()), time.Since(start))
}

// Claim invokes fn(i) for every i in [0, n) like Run, but hands the
// indices out one at a time, in ascending order, to whichever of the
// pool's workers is free, rather than in fixed contiguous chunks. It
// suits a few tasks of uneven cost: ordered longest first, the short
// tasks fill in behind the long ones. Which worker runs an index varies
// from run to run, so fn must write only to index i's slots; a nil or
// one-worker pool runs the indices in ascending order on the caller. fn
// may call Run or Claim on the same pool; each call is bounded by the
// pool's worker count on its own.
func (p *Pool) Claim(phase string, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := min(p.Workers(), n)
	start := time.Now()
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		p.record(phase, time.Since(start), time.Since(start))
		return
	}
	var next, busyNS atomic.Int64
	work := func() {
		t0 := time.Now()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			fn(i)
		}
		busyNS.Add(int64(time.Since(t0)))
	}
	// The calling goroutine is one of the w workers, as in Run.
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for c := 1; c < w; c++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	p.record(phase, time.Duration(busyNS.Load()), time.Since(start))
}

func (p *Pool) record(phase string, busy, wall time.Duration) {
	if p == nil || phase == "" {
		return
	}
	telemetry.RecordParallel(p.rec, phase, busy.Seconds(), wall.Seconds(), p.workers)
}

// SplitSeeds derives k statistically independent RNG seeds from one via
// the SplitMix64 output function. Substream i depends only on (seed, i),
// so a Monte-Carlo estimate striped over SplitSeeds substreams and reduced
// in stripe order is bit-identical at any worker count.
func SplitSeeds(seed int64, k int) []int64 {
	out := make([]int64, k)
	x := uint64(seed)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = int64(z & 0x7fffffffffffffff)
	}
	return out
}
