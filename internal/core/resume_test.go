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
	if got.JSD != want.JSD {
		t.Fatalf("%s: JSD %v, want %v", label, got.JSD, want.JSD)
	}
	if !reflect.DeepEqual(got.SampledMatchPairs, want.SampledMatchPairs) {
		t.Fatalf("%s: sampled match pairs differ", label)
	}
	if got.RejectedByDistribution != want.RejectedByDistribution || got.RejectedByDiscriminator != want.RejectedByDiscriminator {
		t.Fatalf("%s: rejected %d by distribution and %d by discriminator, want %d and %d", label,
			got.RejectedByDistribution, got.RejectedByDiscriminator, want.RejectedByDistribution, want.RejectedByDiscriminator)
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
// the resumed output must be bit-identical to the uninterrupted run. Each
// row's run rejects by its check before a killed save, so at least one
// resume has that rejection count to restore.
func TestSynthesizeKillAndResumeBitIdentical(t *testing.T) {
	opts, er := resumeFixtureOptions(t)
	t.Run("distribution", func(t *testing.T) {
		o := opts
		o.Seed = 37 // rejects by distribution before the save at 40 entities
		killResumeSweep(t, er, o, func(s *checkpoint.S2State) bool { return s.RejectedByDistribution > 0 })
	})
	t.Run("discriminator", func(t *testing.T) {
		o := opts
		o.GAN, o.Beta = fixtureGAN(t, er), 0.5
		killResumeSweep(t, er, o, func(s *checkpoint.S2State) bool { return s.RejectedByDiscriminator > 0 })
	})
}

// killResumeSweep kills a run of opts after each of its checkpoints in
// turn and checks every resume against the uninterrupted run. rejected
// says whether a checkpoint holds a rejection of the kind the caller
// wants restored; the sweep fails unless some killed run's does.
func killResumeSweep(t *testing.T, er *dataset.ER, opts Options, rejected func(*checkpoint.S2State) bool) {
	t.Helper()
	want, err := Synthesize(context.Background(), er, opts)
	if err != nil {
		t.Fatal(err)
	}
	restoredRejections := false
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
			if !restoredRejections {
				t.Fatal("no killed run's checkpoint held a rejection, so no resume had rejection counts to restore")
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
		if latest.S2 != nil && rejected(latest.S2) {
			restoredRejections = true
		}
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

// TestResumeRefusesPoolsThePlansMiss pins the replay check: S2's plans
// rebuild the sampled labels on resume, so a checkpoint whose pools split
// differently from what the seed's plans produce is refused rather than
// resumed with labels for pairs it does not hold.
func TestResumeRefusesPoolsThePlansMiss(t *testing.T) {
	opts, er := resumeFixtureOptions(t)
	dir := t.TempDir()
	cp, err := checkpoint.New(checkpoint.Config{Dir: dir, Every: 10, Tool: "serd", Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	cp.FaultHook = func(m checkpoint.Meta) error {
		if m.Phase == "s2" {
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
	s2 := *snap.S2.S2
	// Move B_syn's last entity to A_syn: the same entity count, split
	// one off from the plans'.
	last := s2.B[len(s2.B)-1]
	s2.B = s2.B[:len(s2.B)-1]
	s2.A = append(append([]checkpoint.EntityState(nil), s2.A...), checkpoint.EntityState{ID: "moved", Values: last.Values})
	ropts := opts
	ropts.Resume = &checkpoint.CoreState{S2: &s2}
	_, err = Synthesize(context.Background(), er, ropts)
	if err == nil || !strings.Contains(err.Error(), "do not match the replayed plans") {
		t.Fatalf("resume from re-split pools: err = %v, want a replay mismatch", err)
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
