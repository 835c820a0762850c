package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"serd/internal/blocking"
	"serd/internal/checkpoint"
	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/journal"
	"serd/internal/pipeline"
	"serd/internal/telemetry"
)

// TestLabelAllPairsBlockedSampledOverlap pins how the blocked S3 treats
// pairs that S2 already labeled: a sampled match stays a match even when
// the candidate set misses it, and a sampled non-match is never re-scored
// even when the candidate set proposes it (the pair would score as a
// match — its entities are a true match — but the S2 label wins).
func TestLabelAllPairsBlockedSampledOverlap(t *testing.T) {
	gen, _ := fixture(t, 30, 30, 12)
	j, err := generator.FitGMM(context.Background(), gen.ER, generator.FitOptions{Rand: rand.New(rand.NewSource(16))})
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.ER.Matches) < 2 {
		t.Fatal("fixture needs at least 2 true matches")
	}
	keptMatch := gen.ER.Matches[0]  // sampled match, absent from candidates
	suppressed := gen.ER.Matches[1] // true match, sampled as NON-match, present in candidates
	sampled := map[dataset.Pair]bool{keptMatch: true, suppressed: false}
	cands := []dataset.Pair{suppressed}
	for _, p := range gen.ER.Matches[2:] {
		cands = append(cands, p)
	}
	pa, pb := gen.ER.Prep(nil)
	matches, err := labelAllPairs(context.Background(), j, pa, pb, sampled, cands, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[dataset.Pair]bool, len(matches))
	for _, p := range matches {
		got[p] = true
	}
	if !got[keptMatch] {
		t.Error("sampled match outside the candidate set was dropped")
	}
	if got[suppressed] {
		t.Error("sampled non-match was re-scored and relabeled by S3")
	}
	// Sanity: S3 did label candidate pairs that were not sampled.
	labeled := 0
	for _, p := range gen.ER.Matches[2:] {
		if got[p] {
			labeled++
		}
	}
	if labeled == 0 {
		t.Error("no unsampled candidate pair was labeled matching")
	}
}

// TestSynthesizeBlockedWorkerInvariance extends the worker-count byte-noop
// invariant to the blocked S3 path: 1 worker and 4 workers must produce
// identical datasets and match sets for the same seed and blocker.
func TestSynthesizeBlockedWorkerInvariance(t *testing.T) {
	gen, synths := fixture(t, 40, 40, 20)
	titleIdx := gen.ER.Schema().ColumnIndex("title")
	run := func(workers int) *Result {
		res, err := Synthesize(context.Background(), gen.ER, Options{
			Synthesizers: synths,
			S3Blocker:    blocking.QGram{Column: titleIdx},
			Workers:      workers,
			Seed:         27,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := run(1), run(4)
	if !reflect.DeepEqual(one.Syn, four.Syn) {
		t.Error("blocked synthesis differs between 1 and 4 workers")
	}
	if one.JSD != four.JSD {
		t.Errorf("JSD differs: %v vs %v", one.JSD, four.JSD)
	}
}

// TestSynthesizeBlockedCancelMidS3 lands a cancellation at the blocked S3
// stage boundary and pins that the resume completes bit-identically —
// mid-S3 cancellation behaves the same whether or not S3 is blocked.
func TestSynthesizeBlockedCancelMidS3(t *testing.T) {
	opts, er := resumeFixtureOptions(t)
	opts.S3Blocker = blocking.QGram{Column: er.Schema().ColumnIndex("title")}
	want, err := Synthesize(context.Background(), er, opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cp, err := checkpoint.New(checkpoint.Config{Dir: dir, Every: 1000, Tool: "serd", Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	copts := opts
	copts.Checkpoint = cp
	copts.Metrics = &cancelOnSpan{Recorder: telemetry.Nop, name: "core.s3", cancel: cancel}
	_, err = Synthesize(ctx, er, copts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *pipeline.StageError
	if !errors.As(err, &se) || se.Stage != "core.s3" {
		t.Fatalf("err = %v, want *pipeline.StageError for core.s3", err)
	}

	snap, err := checkpoint.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.S2 == nil {
		t.Fatal("blocked S3 cancel did not leave an S2-complete checkpoint")
	}
	rcp, err := checkpoint.New(checkpoint.Config{Dir: dir, Every: 1000, Tool: "serd", Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	ropts := opts
	ropts.Checkpoint = rcp
	ropts.Resume = &checkpoint.CoreState{S2: snap.S2.S2}
	got, err := Synthesize(context.Background(), er, ropts)
	if err != nil {
		t.Fatal(err)
	}
	sameSynthesis(t, "blocked cancel mid-S3", got, want)
}

// TestBlockedRunJournalsBlockingEvent pins the audit contract of the
// tentpole: a blocked run journals one blocking event carrying the
// blocker description, candidate count, reduction ratio and the recall
// bound measured on the S2-sampled matches; a floor above the bound adds
// a warning event.
func TestBlockedRunJournalsBlockingEvent(t *testing.T) {
	gen, synths := fixture(t, 40, 40, 20)
	titleIdx := gen.ER.Schema().ColumnIndex("title")
	var buf bytes.Buffer
	jr := journal.New(&buf)
	res, err := Synthesize(context.Background(), gen.ER, Options{
		Synthesizers:  synths,
		S3Blocker:     blocking.QGram{Column: titleIdx},
		S3RecallFloor: 1.01, // unreachable: forces the below-floor warning
		Journal:       jr,
		Seed:          29,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := journal.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum, err := journal.Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Blocking) != 1 {
		t.Fatalf("journaled %d blocking events, want 1", len(sum.Blocking))
	}
	bl := sum.Blocking[0]
	if bl.Source != "core.s3" {
		t.Errorf("blocking source = %q", bl.Source)
	}
	if bl.Blocker != (blocking.QGram{Column: titleIdx}).Describe() {
		t.Errorf("blocking blocker = %q", bl.Blocker)
	}
	if bl.Candidates <= 0 {
		t.Errorf("blocking candidates = %d", bl.Candidates)
	}
	if bl.ReductionRatio <= 0 || bl.ReductionRatio >= 1 {
		t.Errorf("reduction ratio = %v, want in (0,1)", bl.ReductionRatio)
	}
	if bl.RecallBound < 0 || bl.RecallBound > 1 {
		t.Errorf("recall bound = %v", bl.RecallBound)
	}
	if bl.HeldOutMatches != len(res.SampledMatchPairs) {
		t.Errorf("held-out matches = %d, sampled matches = %d", bl.HeldOutMatches, len(res.SampledMatchPairs))
	}
	if bl.PairSpace != float64(res.Syn.A.Len())*float64(res.Syn.B.Len()) {
		t.Errorf("pair space = %v", bl.PairSpace)
	}
	warned := false
	for _, w := range sum.Warnings {
		if w.Source == "core.s3" {
			warned = true
		}
	}
	if !warned {
		t.Error("recall bound below floor journaled no warning")
	}
	if i := journal.VerifyChain(events); i >= 0 {
		t.Errorf("hash chain broken at event %d", i+1)
	}
}

// TestUnblockedRunJournalsNoBlockingEvent guards the byte-noop: without a
// blocker the journal carries no blocking event and no new config keys.
func TestUnblockedRunJournalsNoBlockingEvent(t *testing.T) {
	gen, synths := fixture(t, 30, 30, 12)
	var buf bytes.Buffer
	res, err := Synthesize(context.Background(), gen.ER, Options{
		Synthesizers: synths,
		Journal:      journal.New(&buf),
		Seed:         29,
	})
	if err != nil || res == nil {
		t.Fatal(err)
	}
	events, err := journal.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Type == "blocking" {
			t.Fatal("unblocked run journaled a blocking event")
		}
	}
}

// TestSynthesizeStreamMatchesSaveDir pins the streaming output path: a
// run with a StreamWriter armed produces the same Result and CSVs that
// are byte-identical to a post-run SaveDir of an unstreamed same-seed
// run.
func TestSynthesizeStreamMatchesSaveDir(t *testing.T) {
	gen, synths := fixture(t, 30, 30, 12)
	plain, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	plainDir := t.TempDir()
	if err := dataset.SaveDir(plainDir, plain.Syn); err != nil {
		t.Fatal(err)
	}

	streamDir := t.TempDir()
	sw, err := dataset.NewStreamWriter(streamDir, gen.ER.Schema())
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, Stream: sw, Seed: 31})
	if err != nil {
		sw.Abort()
		t.Fatal(err)
	}
	if err := sw.Finalize(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Syn, streamed.Syn) {
		t.Error("streaming changed the synthesized dataset")
	}
	for _, name := range []string{"A.csv", "B.csv", "matches.csv"} {
		want, err := os.ReadFile(filepath.Join(plainDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(streamDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: streamed bytes differ from SaveDir", name)
		}
	}
}

// TestSynthesizeStreamAcrossResume pins that a kill/resume with a fresh
// StreamWriter per process still streams the complete dataset: the resumed
// run replays the restored pools before appending new entities.
func TestSynthesizeStreamAcrossResume(t *testing.T) {
	opts, er := resumeFixtureOptions(t)
	want, err := Synthesize(context.Background(), er, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantDir := t.TempDir()
	if err := dataset.SaveDir(wantDir, want.Syn); err != nil {
		t.Fatal(err)
	}

	// Interrupted first process: stream armed, canceled mid-S2; its
	// partial output is aborted like cmd/serd would.
	dir := t.TempDir()
	cp, err := checkpoint.New(checkpoint.Config{Dir: dir, Every: 4, Tool: "serd", Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	copts := opts
	copts.Checkpoint = cp
	sw1, err := dataset.NewStreamWriter(t.TempDir(), er.Schema())
	if err != nil {
		t.Fatal(err)
	}
	copts.Stream = sw1
	fired := false
	copts.Progress = func(done, total int) {
		if done >= 12 && !fired {
			fired = true
			cancel()
		}
	}
	if _, err = Synthesize(ctx, er, copts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	sw1.Abort()

	// Resumed second process: fresh StreamWriter, restored pools.
	snap, err := checkpoint.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.S2 == nil {
		t.Fatal("no S2 checkpoint")
	}
	streamDir := t.TempDir()
	sw2, err := dataset.NewStreamWriter(streamDir, er.Schema())
	if err != nil {
		t.Fatal(err)
	}
	ropts := opts
	ropts.Resume = &checkpoint.CoreState{S2: snap.S2.S2}
	ropts.Stream = sw2
	got, err := Synthesize(context.Background(), er, ropts)
	if err != nil {
		sw2.Abort()
		t.Fatal(err)
	}
	if err := sw2.Finalize(); err != nil {
		t.Fatal(err)
	}
	sameSynthesis(t, "stream across resume", got, want)
	for _, name := range []string{"A.csv", "B.csv", "matches.csv"} {
		w, err := os.ReadFile(filepath.Join(wantDir, name))
		if err != nil {
			t.Fatal(err)
		}
		g, err := os.ReadFile(filepath.Join(streamDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: resumed stream bytes differ from uninterrupted SaveDir", name)
		}
	}
}
