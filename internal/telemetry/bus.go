package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// BusEvent is one observability event flowing through a Bus: a span
// boundary from the tracer, a periodic metric delta from the runtime
// sampler, or the terminal shutdown marker. Events are immutable after
// Publish — consumers share the same pointers.
type BusEvent struct {
	// Seq is the bus-assigned publication sequence (0-based). Consumers
	// use it to detect overruns.
	Seq uint64 `json:"seq"`
	// Kind classifies the event: "phase_start", "phase_end" (hierarchical
	// phase spans), "span" (a completed child span, reported at end),
	// "metrics" (a sampler delta batch) or "shutdown" (terminal).
	Kind string `json:"kind"`
	// Name is the span or batch name ("core.s2", "gmm.em.iter", …).
	Name string `json:"name,omitempty"`
	// ID and Parent address the span tree; 0 is the root.
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	// T is the event's wall-clock time in Unix nanoseconds (span start
	// for "span" events, which carry their duration separately).
	T int64 `json:"t"`
	// Dur is the span duration in nanoseconds ("phase_end" and "span").
	Dur int64 `json:"dur,omitempty"`
	// Attrs carries small key/value annotations (worker id, chunk range,
	// accepted counts, ε after step, changed gauges for "metrics").
	Attrs []Attr `json:"attrs,omitempty"`
}

// Attr is one string-valued span/event annotation.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// Bus is a bounded, lock-free, multi-producer broadcast ring for
// BusEvents. Publish never blocks and never takes a lock: producers claim
// a slot with one atomic add and store an event pointer into it. Each
// consumer polls with its own cursor; a consumer that falls more than the
// ring size behind loses the oldest events (drop-oldest policy) and is
// told how many it lost. The hot-loop contract of the pipeline is
// preserved by construction: a nil *Bus ignores Publish, and the armed
// path costs one atomic add plus one pointer store.
type Bus struct {
	mask  uint64
	slots []atomic.Pointer[BusEvent]
	seq   atomic.Uint64 // next sequence to assign == number published
}

// DefaultBusSize bounds the default event ring: large enough that the
// file exporter never drops on a realistic run, small enough to cap
// memory at a few MB of pointers.
const DefaultBusSize = 1 << 16

// NewBus returns a bus with capacity at least size (rounded up to a power
// of two); size <= 0 selects DefaultBusSize.
func NewBus(size int) *Bus {
	if size <= 0 {
		size = DefaultBusSize
	}
	n := 1 << bits.Len(uint(size-1))
	if n < size { // size was > 2^62; clamp rather than overflow
		n = size
	}
	return &Bus{mask: uint64(n - 1), slots: make([]atomic.Pointer[BusEvent], n)}
}

// Cap reports the ring capacity.
func (b *Bus) Cap() int {
	if b == nil {
		return 0
	}
	return len(b.slots)
}

// Publish assigns ev the next sequence number and stores it. ev must not
// be mutated afterwards. A nil bus drops the event.
func (b *Bus) Publish(ev *BusEvent) {
	if b == nil || ev == nil {
		return
	}
	s := b.seq.Add(1) - 1
	ev.Seq = s
	b.slots[s&b.mask].Store(ev)
}

// Head returns the next sequence Publish will assign — the cursor a new
// consumer should start from to see only future events.
func (b *Bus) Head() uint64 {
	if b == nil {
		return 0
	}
	return b.seq.Load()
}

// Poll returns up to max events with sequence >= from, the cursor to
// resume from, and how many events in the requested range were lost to
// ring reuse. Events published concurrently with the poll may be missed
// this round and picked up by the next; Poll never blocks.
func (b *Bus) Poll(from uint64, max int) (events []*BusEvent, next uint64, dropped uint64) {
	if b == nil {
		return nil, from, 0
	}
	head := b.seq.Load()
	if from >= head {
		return nil, from, 0
	}
	size := uint64(len(b.slots))
	if head-from > size {
		dropped = head - size - from
		from = head - size
	}
	if max <= 0 {
		max = int(size)
	}
	i := from
	for ; i < head && len(events) < max; i++ {
		ev := b.slots[i&b.mask].Load()
		if ev == nil || ev.Seq != i {
			// The slot was reused by a writer that lapped us mid-read (or
			// a racing producer has claimed but not yet stored it): the
			// event at this sequence is unrecoverable.
			dropped++
			continue
		}
		events = append(events, ev)
	}
	// Lost slots do not count toward max, so the loop may pass from+max:
	// resume exactly where it stopped.
	return events, i, dropped
}
