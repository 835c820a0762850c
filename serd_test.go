package serd_test

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"serd"
	"serd/internal/blocking"
	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/journal"
)

// TestPublicAPIEndToEnd walks the README quick-start path through the
// public facade: sample data, build synthesizers, synthesize, train and
// compare matchers, audit privacy.
func TestPublicAPIEndToEnd(t *testing.T) {
	real, err := serd.Sample("Restaurant", serd.SampleConfig{Seed: 1, SizeA: 60, SizeB: 60, Matches: 20})
	if err != nil {
		t.Fatal(err)
	}
	synths, err := serd.RuleSynthesizers(real)
	if err != nil {
		t.Fatal(err)
	}
	res, err := serd.Synthesize(real.ER, serd.Options{Synthesizers: synths, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Syn.Stats(); got.SizeA != 60 || got.SizeB != 60 {
		t.Fatalf("synthesized stats %+v", got)
	}

	r := rand.New(rand.NewSource(1))
	train, test, err := dataset.Split(dataset.LabeledPairs(real.ER, 3, r), 0.3, r)
	if err != nil {
		t.Fatal(err)
	}
	synTrain, _, err := dataset.Split(dataset.LabeledPairs(res.Syn, 3, r), 0.05, r)
	if err != nil {
		t.Fatal(err)
	}
	mReal := &serd.RandomForest{Seed: 1}
	xs, ys := serd.Vectors(train)
	if err := mReal.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	mSyn := &serd.RandomForest{Seed: 1}
	xs, ys = serd.Vectors(synTrain)
	if err := mSyn.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	realMet := serd.Evaluate(mReal, test)
	synMet := serd.Evaluate(mSyn, test)
	if realMet.F1() < 0.7 {
		t.Errorf("M_real F1 = %v", realMet.F1())
	}
	if d := realMet.F1() - synMet.F1(); d > 0.35 || d < -0.35 {
		t.Errorf("F1 gap too wide: real %v vs syn %v", realMet.F1(), synMet.F1())
	}

	hr, err := serd.HittingRate(real.ER, res.Syn, 0.9, r)
	if err != nil {
		t.Fatal(err)
	}
	if hr > 2 {
		t.Errorf("hitting rate = %v%%, should be near zero", hr)
	}
	dcr, err := serd.DCR(real.ER, res.Syn, r)
	if err != nil {
		t.Fatal(err)
	}
	if dcr <= 0 || dcr > 1 {
		t.Errorf("DCR = %v", dcr)
	}
}

// TestSampleNames pins that Sample serves every built-in dataset, in
// Table II order, and refuses an unknown name.
func TestSampleNames(t *testing.T) {
	var names []string
	for _, g := range datagen.Registry() {
		names = append(names, g.Name)
	}
	if len(names) != 4 || names[0] != "DBLP-ACM" {
		t.Fatalf("built-in datasets = %v", names)
	}
	for _, n := range names {
		if _, err := serd.Sample(n, serd.SampleConfig{Seed: 1, SizeA: 10, SizeB: 10, Matches: 4, BackgroundPerColumn: 5}); err != nil {
			t.Errorf("Sample(%s): %v", n, err)
		}
	}
	if _, err := serd.Sample("nope", serd.SampleConfig{}); err == nil {
		t.Error("unknown sample name accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	real, err := serd.Sample("DBLP-ACM", serd.SampleConfig{Seed: 2, SizeA: 15, SizeB: 15, Matches: 5, BackgroundPerColumn: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := serd.SaveDataset(dir, real.ER); err != nil {
		t.Fatal(err)
	}
	back, err := serd.LoadDataset(dir, real.ER.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats() != real.ER.Stats() {
		t.Errorf("round trip stats: %+v vs %+v", back.Stats(), real.ER.Stats())
	}
}

func TestDPEpsilonMonotone(t *testing.T) {
	lo := serd.DPEpsilon(0.05, 2.0, 100, 1e-5)
	hi := serd.DPEpsilon(0.05, 0.5, 100, 1e-5)
	if lo >= hi {
		t.Errorf("epsilon must shrink with more noise: sigma=2 -> %v, sigma=0.5 -> %v", lo, hi)
	}
}

func TestEMBenchFacade(t *testing.T) {
	real, err := serd.Sample("Restaurant", serd.SampleConfig{Seed: 3, SizeA: 20, SizeB: 20, Matches: 8, BackgroundPerColumn: 5})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := serd.EMBench(real.ER, 3)
	if err != nil {
		t.Fatal(err)
	}
	if syn.Stats().Matches != 8 {
		t.Errorf("EMBench stats %+v", syn.Stats())
	}
}

func TestBlockingAndZeroERFacade(t *testing.T) {
	real, err := serd.Sample("DBLP-ACM", serd.SampleConfig{Seed: 4, SizeA: 80, SizeB: 80, Matches: 40, BackgroundPerColumn: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Blocking: candidates must cover the matches and prune the space.
	cands, err := serd.BlockerUnion{
		serd.QGramBlocker{Column: 0},
		blocking.Token{Column: 0},
	}.Candidates(real.ER.A, real.ER.B)
	if err != nil {
		t.Fatal(err)
	}
	q := serd.EvaluateBlocking(real.ER, cands)
	if q.Recall < 0.9 {
		t.Errorf("blocking recall = %v", q.Recall)
	}
	if q.ReductionRatio <= 0 {
		t.Errorf("reduction ratio = %v", q.ReductionRatio)
	}
	// ZeroER: label the candidate pairs without any training labels.
	s := real.ER.Schema()
	var xs [][]float64
	for _, p := range cands {
		xs = append(xs, s.SimVector(real.ER.A.Entities[p.A], real.ER.B.Entities[p.B]))
	}
	z := &serd.ZeroER{Seed: 4}
	if err := z.FitUnlabeled(xs); err != nil {
		t.Fatal(err)
	}
	matchSet := real.ER.MatchSet()
	met := serd.Metrics{}
	for i, p := range cands {
		pred := z.Predict(xs[i])
		switch {
		case pred && matchSet[p]:
			met.TP++
		case pred && !matchSet[p]:
			met.FP++
		case !pred && matchSet[p]:
			met.FN++
		default:
			met.TN++
		}
	}
	// An unsupervised matcher on a hard candidate pool won't match a
	// supervised one; the meaningful properties are (a) it finds the
	// matches (high recall) and (b) its precision far exceeds the match
	// base rate — i.e., the mixture genuinely separates something.
	baseRate := float64(len(real.ER.Matches)) / float64(len(cands))
	if met.Recall() < 0.85 {
		t.Errorf("unsupervised ZeroER recall = %v (%+v)", met.Recall(), met)
	}
	if met.Precision() < 3*baseRate {
		t.Errorf("unsupervised ZeroER precision %v not above 3x base rate %v", met.Precision(), baseRate)
	}
}

func TestTransformerBackedSynthesisEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains transformers")
	}
	// The fully faithful §VI path through the public API: DP transformer
	// bank as the string synthesizer inside SERD.
	real, err := serd.Sample("Restaurant", serd.SampleConfig{Seed: 5, SizeA: 20, SizeB: 20, Matches: 8, BackgroundPerColumn: 60})
	if err != nil {
		t.Fatal(err)
	}
	synths := make(map[string]serd.Synthesizer)
	for _, col := range real.ER.Schema().Cols {
		if col.Kind != serd.Textual {
			continue
		}
		ts, err := serd.TrainTransformer(real.Background[col.Name], col.Sim, serd.TransformerOptions{
			Buckets: 3, PairsPerBucket: 9, Epochs: 1, BatchSize: 3, Seed: 5,
			Model: serd.TransformerConfig{DModel: 16, Heads: 2, EncLayers: 1, DecLayers: 1, FFDim: 32, MaxLen: 40},
			DP:    &serd.DPOptions{ClipNorm: 1, Noise: 1.1, Delta: 1e-5},
		})
		if err != nil {
			t.Fatal(err)
		}
		synths[col.Name] = ts
	}
	res, err := serd.Synthesize(real.ER, serd.Options{Synthesizers: synths, Seed: 5, MaxRejections: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Syn.Stats()
	if st.SizeA != 20 || st.SizeB != 20 {
		t.Fatalf("transformer-backed synthesis stats %+v", st)
	}
}

func TestAuditHelpersFacade(t *testing.T) {
	real, err := serd.Sample("Restaurant", serd.SampleConfig{Seed: 6, SizeA: 40, SizeB: 40, Matches: 15, BackgroundPerColumn: 10})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(6))
	synths, err := serd.RuleSynthesizers(real)
	if err != nil {
		t.Fatal(err)
	}
	res, err := serd.Synthesize(real.ER, serd.Options{Synthesizers: synths, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	nndr, err := serd.NNDR(real.ER, res.Syn, r)
	if err != nil {
		t.Fatal(err)
	}
	if nndr <= 0.3 {
		t.Errorf("NNDR of synthesized data = %v, want high (private)", nndr)
	}
	// A matcher trained on the mixed workload holds up on its held-out
	// split.
	pairs, err := serd.MixedWorkload(real.ER, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := serd.Split(pairs, 0.3, r)
	if err != nil {
		t.Fatal(err)
	}
	m := &serd.RandomForest{Seed: 1}
	xs, ys := serd.Vectors(train)
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	if f1 := serd.Evaluate(m, test).F1(); f1 <= 0.3 {
		t.Errorf("held-out F1 on the mixed workload = %v", f1)
	}
}

// TestPrivBayesLedgerVerifies runs the DP backend end to end and holds
// the accounting honest: the fit's single dp_sgd ledger entry must
// recompute from its journaled (noise, steps, q, δ) within
// EpsilonTolerance (1e-9) under serd audit verify's math, and the composed
// budget must not exceed the requested ε.
func TestPrivBayesLedgerVerifies(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	jPath := filepath.Join(dir, "journal.jsonl")

	g, err := serd.Sample("Restaurant", serd.SampleConfig{Seed: 3, SizeA: 40, SizeB: 40, Matches: 12})
	if err != nil {
		t.Fatal(err)
	}
	synths, err := serd.RuleSynthesizers(g)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := journal.Create(jPath)
	if err != nil {
		t.Fatal(err)
	}
	jr.RunStart("test", 9, map[string]string{"dataset": "Restaurant", "s1_generator": "privbayes"})
	ledger := journal.NewLedger(jr)
	const wantEps = 2.0
	res, err := serd.SynthesizeContext(context.Background(), g.ER, serd.Options{
		Synthesizers: synths,
		Seed:         9,
		Journal:      jr,
		Generator:    generator.PrivBayes{Epsilon: wantEps},
		Privacy:      ledger,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := serd.SaveDataset(out, res.Syn); err != nil {
		t.Fatal(err)
	}
	eps, _ := ledger.Finish()
	jr.RunEnd("done", "", map[string]float64{"jsd": res.JSD}, 1)
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	if eps > wantEps+1e-9 {
		t.Errorf("composed ε=%v exceeds the requested budget %v", eps, wantEps)
	}
	if eps < wantEps*0.5 {
		t.Errorf("composed ε=%v implausibly far under the requested budget %v — charge missing?", eps, wantEps)
	}

	vr, err := journal.Verify(jPath, "")
	if err != nil {
		t.Fatal(err)
	}
	if !vr.OK() {
		t.Fatalf("privbayes run failed audit verify: %v", vr.Problems)
	}
	if math.Abs(vr.RecomputedEpsilon-vr.RecordedEpsilon) > 1e-9 {
		t.Errorf("recomputed ε=%v vs recorded ε=%v: drift beyond 1e-9", vr.RecomputedEpsilon, vr.RecordedEpsilon)
	}

	events, err := journal.Read(jPath)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := journal.Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.GenFits) != 2 {
		t.Fatalf("summary has %d generator_fit events, want 2 (M and N)", len(sum.GenFits))
	}
	for _, f := range sum.GenFits {
		if f.Backend != "privbayes" {
			t.Errorf("generator_fit backend = %q, want privbayes", f.Backend)
		}
	}
}

// TestJournalFileRoundTripFromLibrary drives a journaled library run end
// to end: create the journal on disk, record a run, read back, verify.
func TestJournalFileRoundTripFromLibrary(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	jPath := filepath.Join(dir, "journal.jsonl")

	g, err := serd.Sample("Restaurant", serd.SampleConfig{Seed: 3, SizeA: 30, SizeB: 30, Matches: 10})
	if err != nil {
		t.Fatal(err)
	}
	synths, err := serd.RuleSynthesizers(g)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := journal.Create(jPath)
	if err != nil {
		t.Fatal(err)
	}
	jr.RunStart("test", 9, nil)
	res, err := serd.Synthesize(g.ER, serd.Options{Synthesizers: synths, Seed: 9, Journal: jr})
	if err != nil {
		t.Fatal(err)
	}
	if err := serd.SaveDataset(out, res.Syn); err != nil {
		t.Fatal(err)
	}
	if err := jr.Lineage("output", out); err != nil {
		t.Fatal(err)
	}
	jr.RunEnd("done", "", nil, 1)
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(jPath); err != nil {
		t.Fatal(err)
	}

	vr, err := journal.Verify(jPath, "")
	if err != nil {
		t.Fatal(err)
	}
	if !vr.OK() {
		t.Fatalf("library round trip failed verify: %v", vr.Problems)
	}
	events, err := journal.Read(jPath)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := journal.Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Synthesis == nil || len(sum.GenFits) != 2 || len(sum.Lineage) != 1 {
		t.Errorf("summary = synthesis %v, %d generator fits, %d lineage", sum.Synthesis, len(sum.GenFits), len(sum.Lineage))
	}
}
