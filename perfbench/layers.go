package main

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"serd/internal/blocking"
	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/telemetry"
	"serd/internal/textsynth"
)

// interval is one [start, end) span of wall-clock time, in Unix ns.
type interval struct{ lo, hi int64 }

// spanLog collects the intervals one layer was busy. It is safe for
// concurrent use (pool chunks end on worker goroutines).
type spanLog struct {
	mu    sync.Mutex
	spans []interval
	busy  int64 // sum of span durations, ns
	first int   // spans that start a fanned-out region (chunk lo == 0)
	items int   // work items the spans produced (blocker candidates)
}

func (l *spanLog) add(lo, hi int64, first bool) {
	l.mu.Lock()
	l.spans = append(l.spans, interval{lo, hi})
	l.busy += hi - lo
	if first {
		l.first++
	}
	l.mu.Unlock()
}

// time logs a call that started at t0 and produced items work items.
func (l *spanLog) time(t0 time.Time, items int) {
	l.add(t0.UnixNano(), time.Now().UnixNano(), true)
	l.mu.Lock()
	l.items += items
	l.mu.Unlock()
}

func (l *spanLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// busySeconds sums the span durations: a layer's CPU-side work when its
// spans run on several workers at once.
func (l *spanLog) busySeconds() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return float64(l.busy) / 1e9
}

// union merges overlapping spans, so concurrent chunks of one region
// count once: the wall-clock time the layer held the run up.
func union(spans []interval) []interval {
	s := append([]interval(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var out []interval
	for _, iv := range s {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			if iv.hi > out[n-1].hi {
				out[n-1].hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

func length(spans []interval) float64 {
	var ns int64
	for _, iv := range spans {
		ns += iv.hi - iv.lo
	}
	return float64(ns) / 1e9
}

// clip restricts merged spans to the window [lo, hi).
func clip(spans []interval, lo, hi int64) []interval {
	var out []interval
	for _, iv := range spans {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			out = append(out, interval{a, b})
		}
	}
	return out
}

// wallSeconds is the merged wall-clock time of the layer's spans.
func (l *spanLog) wallSeconds() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return length(union(l.spans))
}

func (l *spanLog) merged() []interval {
	l.mu.Lock()
	defer l.mu.Unlock()
	return union(l.spans)
}

// timedSynth times every call into a textual column's synthesizer.
type timedSynth struct {
	inner textsynth.Synthesizer
	log   *spanLog
}

func (s timedSynth) Synthesize(str string, target float64, r *rand.Rand) (string, float64) {
	t0 := time.Now()
	out, sim := s.inner.Synthesize(str, target, r)
	s.log.time(t0, 1)
	return out, sim
}

// timedBlocker times candidate generation and counts the candidates.
type timedBlocker struct {
	inner blocking.Blocker
	log   *spanLog
}

func (b timedBlocker) Describe() string { return b.inner.Describe() }

func (b timedBlocker) Candidates(x, y *dataset.Relation) ([]dataset.Pair, error) {
	t0 := time.Now()
	c, err := b.inner.Candidates(x, y)
	b.log.time(t0, len(c))
	return c, err
}

// timedGenerator times the S1 fit from outside core — wall clock, host
// steal and the process CPU it burned — so the online phase can exclude
// it.
type timedGenerator struct {
	generator.Generator
	wall, stolen, cpu time.Duration
}

func (g *timedGenerator) Fit(ctx context.Context, real *dataset.ER, opts generator.FitOptions) (generator.Dist, error) {
	c0, s0, t0 := cpuTime(), stolenTime(), time.Now()
	d, err := g.Generator.Fit(ctx, real, opts)
	g.wall += time.Since(t0)
	g.stolen += stolenTime() - s0
	g.cpu += cpuTime() - c0
	return d, err
}

// stolenTime is the time the hypervisor has run other guests on this
// machine's CPUs instead of ours, averaged over the CPUs: the aggregate
// steal column of /proc/stat (in USER_HZ = 100 ticks a second) over the
// CPU count. Subtracted from a wall-clock interval it leaves the time
// this guest had the CPUs, so a neighbour's load on the host does not
// read as a slower serd. 0 where /proc/stat has no steal column.
func stolenTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond / time.Duration(runtime.NumCPU())
}

// cpuTime is the process's user+system CPU time so far, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// busLog drains the tracer's event bus while the run goes on and files
// every completed span and phase by name.
type busLog struct {
	bus     *telemetry.Bus
	stop    chan struct{}
	done    chan struct{}
	dropped uint64

	mu     sync.Mutex
	open   map[uint64]int64 // phase id -> start ns
	byName map[string]*spanLog
}

func startBusLog(bus *telemetry.Bus) *busLog {
	b := &busLog{
		bus:    bus,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		open:   make(map[uint64]int64),
		byName: make(map[string]*spanLog),
	}
	go b.loop()
	return b
}

// drainLag keeps the running drain this many events behind the bus
// head: a producer claims its sequence number before it stores the
// event, and an event read in between would be lost. The final drain,
// after the run, reads up to the head.
const drainLag = 1024

func (b *busLog) loop() {
	defer close(b.done)
	var cursor uint64
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-b.stop:
			b.drain(cursor, 0)
			return
		case <-tick.C:
			cursor = b.drain(cursor, drainLag)
		}
	}
}

func (b *busLog) drain(cursor, lag uint64) uint64 {
	for {
		head := b.bus.Head()
		if head < cursor+lag+1 {
			return cursor
		}
		evs, next, dropped := b.bus.Poll(cursor, int(min(head-lag-cursor, 4096)))
		b.dropped += dropped
		for _, ev := range evs {
			b.consume(ev)
		}
		cursor = next
	}
}

func (b *busLog) consume(ev *telemetry.BusEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch ev.Kind {
	case "phase_start":
		b.open[ev.ID] = ev.T
	case "phase_end":
		if t0, ok := b.open[ev.ID]; ok {
			delete(b.open, ev.ID)
			b.logFor(ev.Name).add(t0, ev.T, true)
		}
	case "span":
		first := false
		for _, a := range ev.Attrs {
			if a.Key == "lo" && a.Val == "0" {
				first = true
			}
		}
		b.logFor(ev.Name).add(ev.T, ev.T+ev.Dur, first)
	}
}

func (b *busLog) logFor(name string) *spanLog {
	l := b.byName[name]
	if l == nil {
		l = &spanLog{}
		b.byName[name] = l
	}
	return l
}

// Close stops the drain after one final pass and returns the logs.
func (b *busLog) Close() map[string]*spanLog {
	close(b.stop)
	<-b.done
	return b.byName
}
