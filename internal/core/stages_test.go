package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"serd/internal/checkpoint"
	"serd/internal/telemetry"
	"serd/internal/trace"
)

// phaseNames lists a registry snapshot's phase names, sorted.
func phaseNames(snap telemetry.Snapshot) []string {
	var names []string
	for name := range snap.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// tracedSynthesize runs the resume fixture with a registry wrapped by a
// tracer and returns the registry and every event the tracer published.
func tracedSynthesize(t *testing.T) (*telemetry.Registry, []*telemetry.BusEvent) {
	t.Helper()
	opts, er := resumeFixtureOptions(t)
	bus := telemetry.NewBus(1 << 16)
	reg := telemetry.NewRegistry()
	opts.Metrics = trace.Wrap(trace.New(bus), reg)
	if _, err := Synthesize(context.Background(), er, opts); err != nil {
		t.Fatal(err)
	}
	evs, _, dropped := bus.Poll(0, bus.Cap())
	if dropped != 0 {
		t.Fatalf("bus dropped %d events; raise its capacity", dropped)
	}
	return reg, evs
}

// TestSynthesizeTracesStagesInOrder pins the stage sequence: every stage,
// silent ones included, opens a root trace phase in pipeline order and
// closes it, while only the three paper stages reach the registry.
func TestSynthesizeTracesStagesInOrder(t *testing.T) {
	reg, evs := tracedSynthesize(t)
	var started []string
	ended := map[string]bool{}
	for _, ev := range evs {
		switch ev.Kind {
		case "phase_start":
			started = append(started, ev.Name)
			if ev.Parent != 0 {
				t.Errorf("phase %s nested under span %d, want a root phase", ev.Name, ev.Parent)
			}
		case "phase_end":
			ended[ev.Name] = true
		}
	}
	want := []string{"core.s1", "core.setup", "core.s2", "core.s3", "core.finalize"}
	if fmt.Sprint(started) != fmt.Sprint(want) {
		t.Fatalf("phase_start order = %v, want %v", started, want)
	}
	for _, name := range want {
		if !ended[name] {
			t.Errorf("phase %s never ended", name)
		}
	}
	if got := phaseNames(reg.Snapshot()); fmt.Sprint(got) != "[core.s1 core.s2 core.s3]" {
		t.Errorf("registry phases = %v, want [core.s1 core.s2 core.s3]", got)
	}
}

// TestResumeFromS1RecordsNoS1Phase pins that a run resumed from an S1
// checkpoint restores O_real silently: the journal prefix already holds
// the s1 phase, so no core.s1 span may open again.
func TestResumeFromS1RecordsNoS1Phase(t *testing.T) {
	opts, er := resumeFixtureOptions(t)
	dir := t.TempDir()
	cp, err := checkpoint.New(checkpoint.Config{Dir: dir, Every: 1000, Tool: "serd", Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	copts := opts
	copts.Checkpoint = cp
	if _, err := Synthesize(context.Background(), er, copts); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.S1 == nil {
		t.Fatal("no S1 checkpoint on disk")
	}
	reg := telemetry.NewRegistry()
	ropts := opts
	ropts.Metrics = reg
	ropts.Resume = &checkpoint.CoreState{S1: snap.S1.S1}
	if _, err := Synthesize(context.Background(), er, ropts); err != nil {
		t.Fatal(err)
	}
	if got := phaseNames(reg.Snapshot()); fmt.Sprint(got) != "[core.s2 core.s3]" {
		t.Errorf("resumed registry phases = %v, want [core.s2 core.s3]", got)
	}
}

// spanLog records span starts and ends in order.
type spanLog struct {
	telemetry.Recorder
	events []string
}

type loggedSpan struct {
	log  *spanLog
	name string
}

func (r *spanLog) StartSpan(name string) telemetry.Span {
	r.events = append(r.events, "start:"+name)
	return loggedSpan{log: r, name: name}
}

func (s loggedSpan) End() { s.log.events = append(s.log.events, "end:"+s.name) }

// failS1Save runs the resume fixture with a checkpoint whose every save
// fails, and returns the spans recorded when the first save (the post-S1
// one) ran, along with Synthesize's error.
func failS1Save(t *testing.T) (atSave []string, err error) {
	t.Helper()
	opts, er := resumeFixtureOptions(t)
	cp, err := checkpoint.New(checkpoint.Config{Dir: t.TempDir(), Every: 1000, Tool: "serd", Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	rec := &spanLog{Recorder: telemetry.Nop}
	cp.FaultHook = func(checkpoint.Meta) error {
		if atSave == nil {
			atSave = append([]string{}, rec.events...)
		}
		return errors.New("disk full")
	}
	opts.Checkpoint = cp
	opts.Metrics = rec
	_, err = Synthesize(context.Background(), er, opts)
	return atSave, err
}

// TestS1SaveRunsAfterSpanEnd pins the post-S1 checkpoint to run after
// the core.s1 span has ended, so its journal seam includes the s1
// phase_end.
func TestS1SaveRunsAfterSpanEnd(t *testing.T) {
	atSave, _ := failS1Save(t)
	if fmt.Sprint(atSave) != "[start:core.s1 end:core.s1]" {
		t.Errorf("spans at the S1 save = %v; the save must follow the core.s1 span end", atSave)
	}
}

// TestS1SaveErrorNamesStage pins the error of a failed post-S1 save: it
// names the stage and carries the cause.
func TestS1SaveErrorNamesStage(t *testing.T) {
	_, err := failS1Save(t)
	if err == nil || err.Error() != `pipeline: stage "core.s1" save: disk full` {
		t.Fatalf("err = %v", err)
	}
}

// TestFailedStageLeavesSpanOpen pins the resume shape of an interrupted
// run: the stage that fails keeps its span open, so the journal records
// its phase_start without a phase_end, and nothing after it starts.
func TestFailedStageLeavesSpanOpen(t *testing.T) {
	opts, er := resumeFixtureOptions(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &spanLog{Recorder: telemetry.Nop}
	opts.Metrics = rec
	opts.Progress = func(done, total int) {
		if done >= 5 {
			cancel()
		}
	}
	if _, err := Synthesize(ctx, er, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fmt.Sprint(rec.events) != "[start:core.s1 end:core.s1 start:core.s2]" {
		t.Errorf("spans = %v; the canceled core.s2 span must stay open", rec.events)
	}
}

// TestChainStepSpansCountAttempts pins the spans S2's chain names its
// in-attempt steps by, which trace summaries and per-layer benchmarks
// read: one core.s2.delta.chunk per attempt past the discriminator, one
// gmm.jsd.chunk per Eq. 10 estimate (at least one per rejection by
// distribution), each over the whole range from lo = 0, at any worker
// count.
func TestChainStepSpansCountAttempts(t *testing.T) {
	gen, synths := fixture(t, 30, 30, 12)
	for _, workers := range []int{1, 2} {
		bus := telemetry.NewBus(1 << 16)
		reg := telemetry.NewRegistry()
		opts := Options{Synthesizers: synths, SizeA: 24, SizeB: 24, Seed: 41, Workers: workers,
			Metrics: trace.Wrap(trace.New(bus), reg)}
		if _, err := Synthesize(context.Background(), gen.ER, opts); err != nil {
			t.Fatal(err)
		}
		evs, _, dropped := bus.Poll(0, bus.Cap())
		if dropped != 0 {
			t.Fatalf("bus dropped %d events; raise its capacity", dropped)
		}
		spans := map[string]int{}
		for _, ev := range evs {
			if ev.Kind != "span" || (ev.Name != "core.s2.delta.chunk" && ev.Name != "gmm.jsd.chunk") {
				continue
			}
			spans[ev.Name]++
			for _, a := range ev.Attrs {
				if a.Key == "lo" && a.Val != "0" {
					t.Errorf("workers=%d: %s span has lo=%s, want 0", workers, ev.Name, a.Val)
				}
			}
		}
		c := reg.Snapshot().Counters
		if want := int(c["core.s2.attempts"] - c["core.s2.rejected.discriminator"]); spans["core.s2.delta.chunk"] != want {
			t.Errorf("workers=%d: %d core.s2.delta.chunk spans, want %d", workers, spans["core.s2.delta.chunk"], want)
		}
		rejected := int(c["core.s2.rejected.distribution"])
		if rejected == 0 {
			t.Fatalf("workers=%d: no rejection by distribution; the fixture does not exercise Eq. 10", workers)
		}
		if got := spans["gmm.jsd.chunk"]; got < rejected {
			t.Errorf("workers=%d: %d gmm.jsd.chunk spans, want ≥ %d rejections by distribution", workers, got, rejected)
		}
	}
}
