package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"serd/internal/checkpoint"
	"serd/internal/dataset"
	"serd/internal/telemetry"
)

func resumeFixtureOptions(t *testing.T) (Options, *dataset.ER) {
	t.Helper()
	gen, synths := fixture(t, 30, 30, 12)
	return Options{Synthesizers: synths, SizeA: 24, SizeB: 24, Seed: 33}, gen.ER
}

func sameSynthesis(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Syn, want.Syn) {
		t.Fatalf("%s: synthesized dataset differs", label)
	}
	if got.JSD != want.JSD || got.SampledMatches != want.SampledMatches {
		t.Fatalf("%s: JSD/match summary differs: %v/%d vs %v/%d",
			label, got.JSD, got.SampledMatches, want.JSD, want.SampledMatches)
	}
	if !reflect.DeepEqual(got.SampledMatchPairs, want.SampledMatchPairs) {
		t.Fatalf("%s: sampled match pairs differ", label)
	}
}

// TestSynthesizeCheckpointingIsTransparent pins that enabling checkpointing
// (which must never touch the RNG stream) does not change the output.
func TestSynthesizeCheckpointingIsTransparent(t *testing.T) {
	opts, er := resumeFixtureOptions(t)
	want, err := Synthesize(context.Background(), er, opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cp, err := checkpoint.New(checkpoint.Config{Dir: dir, Every: 10, Tool: "serd", Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint = cp
	got, err := Synthesize(context.Background(), er, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSynthesis(t, "checkpointing on", got, want)
	snap, err := checkpoint.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.S1 == nil || snap.S2 == nil {
		t.Fatalf("expected s1 and s2 checkpoints on disk, got %d files", len(snap.Files))
	}
}

// TestSynthesizeKillAndResumeBitIdentical is the core fault-injection
// harness: the run is killed right after every checkpoint it writes (the
// post-S1 save and each periodic S2 save in turn), resumed from disk, and
// the resumed output must be bit-identical to the uninterrupted run.
func TestSynthesizeKillAndResumeBitIdentical(t *testing.T) {
	opts, er := resumeFixtureOptions(t)
	want, err := Synthesize(context.Background(), er, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 16; k++ {
		dir := t.TempDir()
		cp, err := checkpoint.New(checkpoint.Config{Dir: dir, Every: 10, Tool: "serd", Seed: opts.Seed})
		if err != nil {
			t.Fatal(err)
		}
		killed := false
		cp.FaultHook = func(m checkpoint.Meta) error {
			if m.Saved == k {
				killed = true
				return context.Canceled
			}
			return nil
		}
		kopts := opts
		kopts.Checkpoint = cp
		_, err = Synthesize(context.Background(), er, kopts)
		if !killed {
			// Fewer than k checkpoints in a full run: the sweep is done.
			if err != nil {
				t.Fatal(err)
			}
			if k == 1 {
				t.Fatal("no checkpoints were written at all")
			}
			return
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("kill %d: err = %v, want context.Canceled", k, err)
		}

		snap, err := checkpoint.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		latest := snap.Latest()
		if latest == nil {
			t.Fatalf("kill %d: no checkpoint on disk", k)
		}
		rcp, err := checkpoint.New(checkpoint.Config{Dir: dir, Every: 10, Tool: "serd", Seed: opts.Seed})
		if err != nil {
			t.Fatal(err)
		}
		ropts := opts
		ropts.Checkpoint = rcp
		ropts.Resume = &checkpoint.CoreState{S1: latest.S1, S2: latest.S2}
		got, err := Synthesize(context.Background(), er, ropts)
		if err != nil {
			t.Fatalf("kill %d (phase %s): resume: %v", k, latest.Meta.Phase, err)
		}
		sameSynthesis(t, latest.Meta.Phase, got, want)
	}
	t.Fatal("fault sweep never ran to completion; raise the kill cap")
}

// TestResumeRefusesUntaggedCheckpoint pins the old-artifact contract: a
// checkpoint without an S1 backend tag (the payload shape older builds
// wrote on their default path) is refused with a restart-fresh error
// rather than restored.
func TestResumeRefusesUntaggedCheckpoint(t *testing.T) {
	opts, er := resumeFixtureOptions(t)
	for name, resume := range map[string]*checkpoint.CoreState{
		"s1": {S1: &checkpoint.S1State{Backend: ""}},
		"s2": {S2: &checkpoint.S2State{Backend: ""}},
	} {
		ropts := opts
		ropts.Resume = resume
		_, err := Synthesize(context.Background(), er, ropts)
		if err == nil || !strings.Contains(err.Error(), "restart fresh") {
			t.Errorf("%s: untagged checkpoint: err = %v, want a restart-fresh refusal", name, err)
		}
	}
}

// TestResumedThroughputCountsOnlyNewEntities pins core.s2.entities_per_sec
// on resume: the rate covers the entities this process accepted, not the
// restored pools. Rate × S2 phase wall therefore lies between the entities
// accepted after the resume (the loop runs inside the phase span) and the
// full target, which a rate over every entity would reach.
func TestResumedThroughputCountsOnlyNewEntities(t *testing.T) {
	opts, er := resumeFixtureOptions(t)
	dir := t.TempDir()
	cp, err := checkpoint.New(checkpoint.Config{Dir: dir, Every: 10, Tool: "serd", Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	// Saves: #1 after S1, then S2 at 10, 20, 30, 40 entities.
	cp.FaultHook = func(m checkpoint.Meta) error {
		if m.Saved == 5 {
			return context.Canceled
		}
		return nil
	}
	kopts := opts
	kopts.Checkpoint = cp
	if _, err := Synthesize(context.Background(), er, kopts); !errors.Is(err, context.Canceled) {
		t.Fatalf("kill: err = %v, want context.Canceled", err)
	}
	snap, err := checkpoint.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.S2 == nil {
		t.Fatal("no S2 checkpoint to resume from")
	}
	total := opts.SizeA + opts.SizeB
	accepted := total - len(snap.S2.S2.A) - len(snap.S2.S2.B)
	if accepted <= 0 || 2*accepted > total {
		t.Fatalf("resume point leaves %d of %d entities; the check needs a late-S2 resume", accepted, total)
	}

	reg := telemetry.NewRegistry()
	ropts := opts
	ropts.Metrics = reg
	ropts.Resume = &checkpoint.CoreState{S2: snap.S2.S2}
	if _, err := Synthesize(context.Background(), er, ropts); err != nil {
		t.Fatal(err)
	}
	rate, ok := reg.Gauge("core.s2.entities_per_sec")
	if !ok {
		t.Fatal("core.s2.entities_per_sec not recorded")
	}
	wall := reg.Snapshot().Phases["core.s2"].TotalSeconds
	if n := rate * wall; n < float64(accepted)*(1-1e-9) || n >= float64(total) {
		t.Errorf("rate %.1f/s over the %.4fs S2 phase implies %.1f entities; this process accepted %d of %d",
			rate, wall, n, accepted, total)
	}
}
