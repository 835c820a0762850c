package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"serd/internal/blocking"
	"serd/internal/checkpoint"
	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/pipeline"
	"serd/internal/telemetry"
)

// spanNameRecorder records StartSpan names; all other telemetry is
// forwarded to the embedded recorder. Used to observe which pipeline
// stages a resumed run actually enters.
type spanNameRecorder struct {
	telemetry.Recorder
	mu    sync.Mutex
	names []string
}

func (r *spanNameRecorder) StartSpan(name string) telemetry.Span {
	r.mu.Lock()
	r.names = append(r.names, name)
	r.mu.Unlock()
	return r.Recorder.StartSpan(name)
}

func (r *spanNameRecorder) count(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.names {
		if s == name {
			n++
		}
	}
	return n
}

// cancelOnSpan cancels a context the moment a named span starts — the
// hook used to land a cancellation exactly at a stage boundary.
type cancelOnSpan struct {
	telemetry.Recorder
	name   string
	cancel context.CancelFunc
}

func (r *cancelOnSpan) StartSpan(name string) telemetry.Span {
	if name == r.name {
		r.cancel()
	}
	return r.Recorder.StartSpan(name)
}

// TestSynthesizeCancelMidS2 lands a cancellation inside the S2 loop (via
// the Progress callback, which fires after each accepted entity) and pins
// the full contract: prompt return with a *pipeline.StageError naming
// core.s2 and wrapping context.Canceled, a final S2 checkpoint on disk,
// and a resume that completes bit-identically to the uninterrupted run.
func TestSynthesizeCancelMidS2(t *testing.T) {
	opts, er := resumeFixtureOptions(t)
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
	copts.Progress = func(done, total int) {
		if done >= 5 {
			cancel()
		}
	}
	_, err = Synthesize(ctx, er, copts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *pipeline.StageError
	if !errors.As(err, &se) || se.Stage != "core.s2" {
		t.Fatalf("err = %v, want *pipeline.StageError for core.s2", err)
	}
	if !strings.Contains(err.Error(), "core: s2 interrupted at") {
		t.Fatalf("error %q does not report the S2 position", err)
	}

	snap, err := checkpoint.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.S2 == nil {
		t.Fatal("cancel did not leave a final S2 checkpoint")
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
	sameSynthesis(t, "cancel mid-S2", got, want)
}

// TestSynthesizeCancelMidS3 lands the cancellation at the S3 stage
// boundary (the core.s3 span start). The run must save the S2-complete
// pools, return a *pipeline.StageError naming core.s3, and the resume
// must skip S2 entirely — no core.s2 span — and complete bit-identically.
func TestSynthesizeCancelMidS3(t *testing.T) {
	opts, er := resumeFixtureOptions(t)
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
	if !strings.Contains(err.Error(), "core: s3 interrupted") {
		t.Fatalf("error %q does not name S3", err)
	}

	snap, err := checkpoint.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.S2 == nil {
		t.Fatal("S3 cancel did not leave an S2-complete checkpoint")
	}
	rcp, err := checkpoint.New(checkpoint.Config{Dir: dir, Every: 1000, Tool: "serd", Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	rec := &spanNameRecorder{Recorder: telemetry.Nop}
	ropts := opts
	ropts.Checkpoint = rcp
	ropts.Resume = &checkpoint.CoreState{S2: snap.S2.S2}
	ropts.Metrics = rec
	got, err := Synthesize(context.Background(), er, ropts)
	if err != nil {
		t.Fatal(err)
	}
	sameSynthesis(t, "cancel mid-S3", got, want)
	if n := rec.count("core.s2"); n != 0 {
		t.Fatalf("resume after an S3 cancel entered S2 %d times; the complete pools must skip it", n)
	}
	if n := rec.count("core.s3"); n != 1 {
		t.Fatalf("resume ran core.s3 %d times, want 1", n)
	}
}

// cancelInS3 is the GMM backend with an O_real whose IsMatch cancels the
// run once armed is set — armed by Progress after S2's last entity, so the
// cancel lands inside S3's labeling fan-out.
type cancelInS3 struct {
	generator.GMM
	armed  *bool
	cancel context.CancelFunc
}

func (g cancelInS3) Fit(ctx context.Context, real *dataset.ER, opts generator.FitOptions) (generator.Dist, error) {
	d, err := g.GMM.Fit(ctx, real, opts)
	if err != nil {
		return nil, err
	}
	return cancelingDist{Dist: d, armed: g.armed, cancel: g.cancel}, nil
}

type cancelingDist struct {
	generator.Dist
	armed  *bool
	cancel context.CancelFunc
}

func (d cancelingDist) IsMatch(x []float64) bool {
	if *d.armed {
		d.cancel()
	}
	return d.Dist.IsMatch(x)
}

// TestSynthesizeCancelInsideS3Labeling cancels from inside labelAllPairs'
// pool fan-out, after the stage boundary has passed: the pairs left
// unscored must not come back as a finished match set, so the run returns
// a *pipeline.StageError naming core.s3 that wraps context.Canceled.
func TestSynthesizeCancelInsideS3Labeling(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		t.Run(fmt.Sprintf("blocked=%v", blocked), func(t *testing.T) {
			opts, er := resumeFixtureOptions(t)
			if blocked {
				opts.S3Blocker = blocking.QGram{Column: er.Schema().ColumnIndex("title")}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			armed := false
			opts.Workers = 1
			opts.Generator = cancelInS3{armed: &armed, cancel: cancel}
			opts.Progress = func(done, total int) { armed = done == total }
			_, err := Synthesize(ctx, er, opts)
			if !armed {
				t.Fatal("S2 never reported its last entity")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			var se *pipeline.StageError
			if !errors.As(err, &se) || se.Stage != "core.s3" {
				t.Fatalf("err = %v, want *pipeline.StageError for core.s3", err)
			}
		})
	}
}

// TestSynthesizeCancelDuringS1 pins the S1 cancellation contract: a
// cancellation landing in the EM fits stops the fit within one iteration,
// the error names the core.s1 stage, and — because no partial S1 state is
// checkpointable by design — the checkpoint directory stays empty, so a
// later run starts fresh rather than resuming a half-learned O_real.
func TestSynthesizeCancelDuringS1(t *testing.T) {
	opts, er := resumeFixtureOptions(t)
	dir := t.TempDir()
	cp, err := checkpoint.New(checkpoint.Config{Dir: dir, Every: 1000, Tool: "serd", Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	copts := opts
	copts.Checkpoint = cp
	_, err = Synthesize(ctx, er, copts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *pipeline.StageError
	if !errors.As(err, &se) || se.Stage != "core.s1" {
		t.Fatalf("err = %v, want *pipeline.StageError for core.s1", err)
	}
	snap, err := checkpoint.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.S1 != nil || snap.S2 != nil {
		t.Fatal("an S1 cancel must not leave a checkpoint (no partial S1 state exists)")
	}
}

// TestSynthesizeUntriggeredContextIsNoop is the determinism invariant at
// the core layer: a cancelable context that never fires must be a true
// no-op on the synthesized dataset (the context plumbing adds flag reads,
// never RNG draws).
func TestSynthesizeUntriggeredContextIsNoop(t *testing.T) {
	opts, er := resumeFixtureOptions(t)
	want, err := Synthesize(context.Background(), er, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := Synthesize(ctx, er, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSynthesis(t, "untriggered context", got, want)
}
