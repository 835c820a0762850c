package textsynth

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"serd/internal/checkpoint"
	"serd/internal/journal"
	"serd/internal/simfn"
	"serd/internal/telemetry"
	"serd/internal/transformer"
)

// microOptions keeps the transformer tiny so tests run on one CPU core.
func microOptions(dp *DPOptions) TransformerOptions {
	return TransformerOptions{
		Buckets:        4,
		PairsPerBucket: 12,
		Epochs:         1,
		BatchSize:      4,
		Model: transformer.Config{
			DModel:    16,
			Heads:     2,
			EncLayers: 1,
			DecLayers: 1,
			FFDim:     32,
			MaxLen:    40,
		},
		DP:         dp,
		Candidates: 3,
		Seed:       1,
	}
}

func smallCorpus() []string {
	return []string{
		"alpha beta gamma", "beta gamma delta", "gamma delta epsilon",
		"delta epsilon zeta", "epsilon zeta eta", "zeta eta theta",
		"eta theta iota", "theta iota kappa", "iota kappa lambda",
		"kappa lambda mu", "lambda mu nu", "mu nu xi",
		"nu xi omicron", "xi omicron pi", "omicron pi rho",
		"pi rho sigma", "rho sigma tau", "sigma tau upsilon",
	}
}

func TestTrainTransformerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("transformer training")
	}
	ts, err := TrainTransformer(context.Background(), smallCorpus(), simfn.QGramJaccard{Q: 3, Fold: true}, microOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	got, sim := ts.Synthesize("alpha beta gamma", 0.5, r)
	if got == "" {
		t.Fatal("empty synthesis")
	}
	if sim < 0 || sim > 1 || math.IsNaN(sim) {
		t.Fatalf("sim = %v", sim)
	}
	// Without DP no epsilon is claimed.
	if !math.IsInf(ts.Epsilon(), 1) {
		t.Errorf("non-DP training must report infinite epsilon, got %v", ts.Epsilon())
	}
}

func TestTrainTransformerDPReportsEpsilon(t *testing.T) {
	if testing.Short() {
		t.Skip("transformer training")
	}
	dpOpts := &DPOptions{ClipNorm: 1.0, Noise: 1.1, Delta: 1e-5}
	opts := microOptions(dpOpts)
	reg := telemetry.NewRegistry()
	opts.Metrics = reg
	ts, err := TrainTransformer(context.Background(), smallCorpus(), simfn.QGramJaccard{Q: 3, Fold: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	eps := ts.Epsilon()
	if math.IsInf(eps, 1) || eps <= 0 {
		t.Errorf("DP training must report a finite positive epsilon, got %v", eps)
	}
	// The live privacy budget and training trajectory must have landed in
	// the registry.
	if gauge, ok := reg.Gauge("dp.epsilon"); !ok || gauge != eps {
		t.Errorf("dp.epsilon gauge = %v, %v; want final epsilon %v", gauge, ok, eps)
	}
	snap := reg.Snapshot()
	if snap.Counters["dp.sgd.steps"] == 0 {
		t.Error("dp.sgd.steps not counted")
	}
	if h, ok := snap.Histograms["textsynth.train.loss"]; !ok || h.Count == 0 {
		t.Error("textsynth.train.loss histogram empty")
	}
	if _, ok := snap.Phases["textsynth.train.bucket"]; !ok {
		t.Error("textsynth.train.bucket phase missing")
	}
	r := rand.New(rand.NewSource(3))
	got, _ := ts.Synthesize("alpha beta gamma", 0.8, r)
	if got == "" {
		t.Fatal("DP-trained model produced empty synthesis")
	}
}

func TestModelForFallsBackToNearestBucket(t *testing.T) {
	ts := &TransformerSynthesizer{
		buckets: 4,
		models:  make([]*transformer.Model, 4),
	}
	v := transformer.BuildVocab([]string{"ab"})
	m, err := transformer.New(transformer.Config{Vocab: v, DModel: 8, Heads: 1, EncLayers: 1, DecLayers: 1, FFDim: 8, MaxLen: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts.models[3] = m
	if ts.modelFor(0.1) != m {
		t.Error("modelFor must fall back to the nearest trained bucket")
	}
	if ts.modelFor(math.NaN()) != m {
		t.Error("modelFor(NaN) must fall back from bucket 0")
	}
}

// resumeOptions is a DP configuration whose buckets hit a partial final
// lot (10 % 4 != 0) and train two epochs, so a kill can land mid-bucket.
func resumeOptions() TransformerOptions {
	opts := microOptions(&DPOptions{ClipNorm: 1.0, Noise: 1.1, Delta: 1e-5})
	opts.PairsPerBucket = 10
	opts.Epochs = 2
	opts.Column = "name"
	return opts
}

// TestTrainResumeBitIdentical pins the crash-resume contract: killing
// training right after a checkpoint (post-charge and mid-bucket) and
// resuming from it yields a bank bit-identical to the uninterrupted run,
// without re-charging the privacy ledger.
func TestTrainResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("transformer training")
	}
	corpus := smallCorpus()
	sim := simfn.QGramJaccard{Q: 3, Fold: true}

	// Baseline A: no checkpointing at all.
	plain, err := TrainTransformer(context.Background(), corpus, sim, resumeOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := plain.CheckpointState("name")

	// Baseline B: checkpointing on, never killed — must not change results.
	opts := resumeOptions()
	opts.Privacy = journal.NewLedger(nil)
	cp, err := checkpoint.New(checkpoint.Config{Dir: t.TempDir(), Tool: "serd", Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint = cp
	full, err := TrainTransformer(context.Background(), corpus, sim, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.CheckpointState("name"), want) {
		t.Fatal("enabling checkpointing changed the trained bank")
	}
	wantCharges := len(opts.Privacy.Entries())
	if wantCharges == 0 {
		t.Fatal("no DP charges recorded")
	}

	// Kill right after save #1 (a post-charge save, EpochsDone == 0) and
	// after save #2 (a mid-bucket epoch save), then resume each.
	for _, killAt := range []uint64{1, 2} {
		dir := t.TempDir()
		opts := resumeOptions()
		opts.Privacy = journal.NewLedger(nil)
		cp, err := checkpoint.New(checkpoint.Config{Dir: dir, Tool: "serd", Seed: opts.Seed})
		if err != nil {
			t.Fatal(err)
		}
		cp.FaultHook = func(m checkpoint.Meta) error {
			if m.Saved == killAt {
				return context.Canceled
			}
			return nil
		}
		opts.Checkpoint = cp
		if _, err := TrainTransformer(context.Background(), corpus, sim, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("killAt=%d: err = %v, want context.Canceled", killAt, err)
		}
		preCharges := opts.Privacy.Entries()

		snap, err := checkpoint.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		file := snap.Trains["name"]
		if file == nil {
			t.Fatalf("killAt=%d: no train checkpoint on disk", killAt)
		}
		st := file.Train
		if killAt == 1 && (st.EpochsDone != 0 || st.NextBucket != 0) {
			t.Fatalf("killAt=1: checkpoint at bucket %d epoch %d, want the post-charge save", st.NextBucket, st.EpochsDone)
		}
		if killAt == 2 && st.EpochsDone != 1 {
			t.Fatalf("killAt=2: checkpoint at epoch %d, want mid-bucket epoch 1", st.EpochsDone)
		}

		ropts := resumeOptions()
		ropts.Privacy = journal.NewLedger(nil)
		ropts.Privacy.Restore(preCharges)
		rcp, err := checkpoint.New(checkpoint.Config{Dir: dir, Tool: "serd", Seed: ropts.Seed})
		if err != nil {
			t.Fatal(err)
		}
		ropts.Checkpoint = rcp
		ropts.Resume = st
		resumed, err := TrainTransformer(context.Background(), corpus, sim, ropts)
		if err != nil {
			t.Fatalf("killAt=%d: resume: %v", killAt, err)
		}
		if !reflect.DeepEqual(resumed.CheckpointState("name"), want) {
			t.Fatalf("killAt=%d: resumed bank differs from uninterrupted run", killAt)
		}
		if got := len(ropts.Privacy.Entries()); got != wantCharges {
			t.Fatalf("killAt=%d: ledger has %d entries after resume, want %d (no double charging)", killAt, got, wantCharges)
		}
	}
}

// TestNewFromStateRebuildsDoneBank pins the Done-checkpoint path: a crash
// after training resumes by rebuilding the bank, bit-identical, with no
// retraining and no new charges.
func TestNewFromStateRebuildsDoneBank(t *testing.T) {
	if testing.Short() {
		t.Skip("transformer training")
	}
	corpus := smallCorpus()
	sim := simfn.QGramJaccard{Q: 3, Fold: true}
	ts, err := TrainTransformer(context.Background(), corpus, sim, resumeOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := ts.CheckpointState("name")

	opts := resumeOptions()
	opts.Privacy = journal.NewLedger(nil)
	opts.Resume = st
	rebuilt, err := TrainTransformer(context.Background(), corpus, sim, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.Privacy.Entries()) != 0 {
		t.Error("rebuilding a Done bank charged the ledger")
	}
	if !reflect.DeepEqual(rebuilt.CheckpointState("name"), st) {
		t.Fatal("rebuilt bank differs from the checkpointed one")
	}
	if rebuilt.Epsilon() != ts.Epsilon() {
		t.Fatalf("epsilon %v != %v", rebuilt.Epsilon(), ts.Epsilon())
	}

	if _, err := NewFromState(&checkpoint.TrainState{Done: false}, sim, resumeOptions()); err == nil {
		t.Error("NewFromState accepted a non-Done checkpoint")
	}
}

// TestSynthesizersSafeForConcurrentCalls pins the Synthesizer contract S2
// relies on: calls from several goroutines at once, each with its own r,
// return what the same calls return one at a time (and, under -race,
// share no unsynchronized state).
func TestSynthesizersSafeForConcurrentCalls(t *testing.T) {
	sim := simfn.QGramJaccard{Q: 3, Fold: true}
	rule, err := NewRuleSynthesizer(sim, smallCorpus())
	if err != nil {
		t.Fatal(err)
	}
	synths := map[string]Synthesizer{"rule": rule}
	if !testing.Short() {
		ts, err := TrainTransformer(context.Background(), smallCorpus(), sim, microOptions(nil))
		if err != nil {
			t.Fatal(err)
		}
		synths["transformer"] = ts
	}
	inputs := smallCorpus()
	for name, s := range synths {
		call := func(i int) string {
			out, _ := s.Synthesize(inputs[i], float64(i%5)/4, rand.New(rand.NewSource(int64(i))))
			return out
		}
		want := make([]string, len(inputs))
		for i := range inputs {
			want[i] = call(i)
		}
		got := make([]string, len(inputs))
		var wg sync.WaitGroup
		for i := range inputs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = call(i)
			}(i)
		}
		wg.Wait()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: concurrent calls returned %q, one at a time %q", name, got, want)
		}
	}
}
