package trace

import (
	"testing"
	"time"

	"serd/internal/telemetry"
)

func drain(bus *telemetry.Bus) []*telemetry.BusEvent {
	evs, _, _ := bus.Poll(0, int(bus.Cap()))
	return evs
}

func TestNilTracerIsDisarmed(t *testing.T) {
	if New(nil) != nil {
		t.Fatal("New(nil) should yield the nil (disarmed) tracer")
	}
	var tr *Tracer
	ph := tr.StartPhase("x")
	if ph != nil {
		t.Error("nil tracer StartPhase should return nil")
	}
	ph.End()
	c := tr.Child("y", Int("worker", 0))
	if c != nil {
		t.Error("nil tracer Child should return nil")
	}
	c.End(Float("v", 1))

	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Child("hot")
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disarmed Child/End allocates %.1f per op", allocs)
	}
}

func TestPhaseNesting(t *testing.T) {
	bus := telemetry.NewBus(64)
	tr := New(bus)

	outer := tr.StartPhase("core.s1")
	inner := tr.StartPhase("core.s1.fit")
	inner.End()
	outer.End()

	evs := drain(bus)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4: %+v", len(evs), evs)
	}
	if evs[0].Kind != "phase_start" || evs[0].Name != "core.s1" || evs[0].Parent != 0 {
		t.Errorf("outer start = %+v", evs[0])
	}
	if evs[1].Kind != "phase_start" || evs[1].Parent != evs[0].ID {
		t.Errorf("inner start not parented to outer: %+v", evs[1])
	}
	if evs[2].Kind != "phase_end" || evs[2].ID != evs[1].ID || evs[2].Dur < 0 {
		t.Errorf("inner end = %+v", evs[2])
	}
	if evs[3].Kind != "phase_end" || evs[3].ID != evs[0].ID || evs[3].Dur < evs[2].Dur {
		t.Errorf("outer end = %+v", evs[3])
	}
}

func TestChildSpansMergeAttrs(t *testing.T) {
	bus := telemetry.NewBus(64)
	tr := New(bus)

	ph := tr.StartPhase("core.s2")
	c := tr.Child("core.s2.block", Int("from", 10))
	c.End(Int("accepted", 7), Float("rate", 0.5))
	ph.End()

	evs := drain(bus)
	var span *telemetry.BusEvent
	for _, ev := range evs {
		if ev.Kind == "span" {
			span = ev
		}
	}
	if span == nil {
		t.Fatalf("no span event in %+v", evs)
	}
	if span.Parent == 0 {
		t.Error("child span not parented to the open phase")
	}
	got := map[string]string{}
	for _, a := range span.Attrs {
		got[a.Key] = a.Val
	}
	want := map[string]string{"from": "10", "accepted": "7", "rate": "0.5"}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("attr %s = %q, want %q (all: %v)", k, got[k], v, got)
		}
	}
}

func TestWrapAndFromRecorder(t *testing.T) {
	if tr := FromRecorder(telemetry.Nop); tr != nil {
		t.Error("Nop recorder should carry no tracer")
	}
	if tr := FromRecorder(nil); tr != nil {
		t.Error("nil recorder should carry no tracer")
	}

	// Disarmed: Wrap(nil, inner) must pass inner through untouched.
	reg := telemetry.NewRegistry()
	rec := Wrap(nil, reg)
	if FromRecorder(rec) != nil {
		t.Error("disarmed wrap exposes a tracer")
	}
	rec.Add("c", 1)
	if got := reg.Counter("c"); got != 1 {
		t.Errorf("disarmed wrap dropped Add: %v", got)
	}

	// Armed: the chain exposes the tracer and feeds both layers.
	bus := telemetry.NewBus(64)
	tr := New(bus)
	rec = Wrap(tr, reg)
	if FromRecorder(rec) != tr {
		t.Error("armed wrap does not expose its tracer")
	}
	rec.Add("c", 1)
	rec.Set("g", 2)
	rec.Observe("h", 3)
	sp := rec.StartSpan("core.s1")
	sp.End()

	if got := reg.Counter("c"); got != 2 {
		t.Errorf("inner counter = %v, want 2", got)
	}
	snap := reg.Snapshot()
	if snap.Phases["core.s1"].Count != 1 {
		t.Errorf("inner phase not recorded: %+v", snap.Phases)
	}
	evs := drain(bus)
	if len(evs) != 2 || evs[0].Kind != "phase_start" || evs[1].Kind != "phase_end" {
		t.Errorf("trace events = %+v", evs)
	}
}

// slowRecorder is an inner recorder whose span boundaries take time, as
// the journal tee's fsynced phase_start and phase_end writes do. It notes
// when its StartSpan was entered and when its span's End returned.
type slowRecorder struct {
	telemetry.Recorder
	dwell        time.Duration
	entered, out time.Time
}

func (r *slowRecorder) StartSpan(string) telemetry.Span {
	r.entered = time.Now()
	time.Sleep(r.dwell)
	return slowSpan{r}
}

type slowSpan struct{ r *slowRecorder }

func (s slowSpan) End() {
	time.Sleep(s.r.dwell)
	s.r.out = time.Now()
}

// TestPhaseEnclosesInnerSpan pins the wrapper's order at a stage
// boundary: the trace phase opens before the inner span starts and closes
// after it ends, so time the inner chain spends there (an fsync) counts
// inside the stage.
func TestPhaseEnclosesInnerSpan(t *testing.T) {
	bus := telemetry.NewBus(64)
	inner := &slowRecorder{Recorder: telemetry.Nop, dwell: 20 * time.Millisecond}
	Wrap(New(bus), inner).StartSpan("core.s1").End()

	evs := drain(bus)
	if len(evs) != 2 || evs[0].Kind != "phase_start" || evs[1].Kind != "phase_end" {
		t.Fatalf("trace events = %+v", evs)
	}
	if start := evs[0].T; start > inner.entered.UnixNano() {
		t.Errorf("phase starts %v after the inner StartSpan was entered", time.Duration(start-inner.entered.UnixNano()))
	}
	if end := evs[1].T; end < inner.out.UnixNano() {
		t.Errorf("phase ends %v before the inner span's End returned", time.Duration(inner.out.UnixNano()-end))
	}
	if min := 2 * inner.dwell; time.Duration(evs[1].Dur) < min {
		t.Errorf("phase lasts %v, want at least the inner span's two dwells (%v)", time.Duration(evs[1].Dur), min)
	}
}
