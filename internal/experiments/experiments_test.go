package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/telemetry"
)

// quickCfg keeps suites small enough for unit tests.
func quickCfg(datasets ...string) Config {
	if len(datasets) == 0 {
		datasets = []string{"DBLP-ACM"}
	}
	return Config{Seed: 1, Datasets: datasets, SizeCap: 60, MatchCap: 25}
}

func TestModelEvaluationShape(t *testing.T) {
	s := NewSuite(quickCfg())
	rows, err := s.ModelEvaluation(Magellan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // Real + 3 synthetic methods for one dataset
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	if rows[0].Method != MethodReal {
		t.Fatalf("first row method = %v", rows[0].Method)
	}
	// The Real matcher must learn the (separable) real data well.
	if f1 := rows[0].Metrics.F1(); f1 < 0.8 {
		t.Errorf("Real matcher F1 = %v", f1)
	}
	// The key Figure 6 relationship: SERD's F1 gap is smaller than both
	// ablations' gaps on the shared test set.
	gap := map[Method]float64{}
	for _, r := range rows[1:] {
		gap[r.Method] = r.DF1
	}
	if gap[MethodSERD] > 0.25 {
		t.Errorf("SERD F1 gap = %v, want small", gap[MethodSERD])
	}
}

func TestDataEvaluationShape(t *testing.T) {
	s := NewSuite(quickCfg())
	rows, err := s.DataEvaluation(Deepmatcher)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Metrics.TP+r.Metrics.FP+r.Metrics.TN+r.Metrics.FN == 0 {
			t.Errorf("%s/%s evaluated on an empty test set", r.Dataset, r.Method)
		}
	}
}

func TestUserStudyRows(t *testing.T) {
	s := NewSuite(quickCfg())
	rows, err := s.UserStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.EntitiesJudged == 0 || r.PairsJudged == 0 {
		t.Fatalf("nothing judged: %+v", r)
	}
	if r.Agree+r.Neutral+r.Disagree < 0.99 {
		t.Errorf("S1 proportions sum to %v", r.Agree+r.Neutral+r.Disagree)
	}
	// Non-matching synthesized pairs almost never read as matching.
	if r.NonAsMatch > 0.1 {
		t.Errorf("N->match = %v, want ~0", r.NonAsMatch)
	}
}

func TestTableI(t *testing.T) {
	s := NewSuite(quickCfg("DBLP-ACM", "Restaurant"))
	rows, err := s.TableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // authors + name + address cases
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Output == "" {
			t.Errorf("%s: empty output", r.Domain)
		}
		if d := r.AchievedSim - r.TargetSim; d > 0.25 || d < -0.25 {
			t.Errorf("%s: target %v, achieved %v", r.Domain, r.TargetSim, r.AchievedSim)
		}
	}
}

func TestTableII(t *testing.T) {
	s := NewSuite(quickCfg())
	rows, err := s.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Paper.SizeA != 2616 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Scaled.SizeA != 60 {
		t.Errorf("size cap not applied: %d", rows[0].Scaled.SizeA)
	}
}

func TestTableIII(t *testing.T) {
	s := NewSuite(quickCfg())
	rows, err := s.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The Table III shape: EMBench leaks (higher hitting rate, lower DCR)
	// relative to SERD.
	if r.HittingRate[MethodEMBench] < r.HittingRate[MethodSERD] {
		t.Errorf("HR: EMBench %v < SERD %v", r.HittingRate[MethodEMBench], r.HittingRate[MethodSERD])
	}
	if r.DCR[MethodEMBench] > r.DCR[MethodSERD] {
		t.Errorf("DCR: EMBench %v > SERD %v", r.DCR[MethodEMBench], r.DCR[MethodSERD])
	}
}

func TestPrinters(t *testing.T) {
	s := NewSuite(quickCfg())
	var buf bytes.Buffer

	evalRows, err := s.ModelEvaluation(Magellan)
	if err != nil {
		t.Fatal(err)
	}
	PrintEvalRows(&buf, "FIGURE 6", evalRows)
	if !strings.Contains(buf.String(), "SERD-") || !strings.Contains(buf.String(), "EMBench") {
		t.Error("eval print missing methods")
	}

	buf.Reset()
	t2, err := s.TableII()
	if err != nil {
		t.Fatal(err)
	}
	PrintTableII(&buf, t2)
	if !strings.Contains(buf.String(), "DBLP-ACM") {
		t.Error("Table II print missing dataset")
	}

	buf.Reset()
	t3, err := s.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	PrintTableIII(&buf, t3)
	if !strings.Contains(buf.String(), "DCR") {
		t.Error("Table III print missing header")
	}

	buf.Reset()
	f5, err := s.UserStudy()
	if err != nil {
		t.Fatal(err)
	}
	PrintFigure5(&buf, f5)
	if !strings.Contains(buf.String(), "Agree") {
		t.Error("Figure 5 print missing header")
	}
}

func TestSuiteCachesSynthesis(t *testing.T) {
	s := NewSuite(quickCfg())
	a, err := s.SynER("DBLP-ACM", MethodSERD)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.SynER("DBLP-ACM", MethodSERD)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("SynER not cached")
	}
	if _, err := s.SynER("DBLP-ACM", Method("nope")); err == nil {
		t.Error("unknown method accepted")
	}
	res, err := s.SERDResult("DBLP-ACM")
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Syn != a {
		t.Error("SERDResult does not match cached dataset")
	}
}

func TestTableIVQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	s := NewSuite(Config{Seed: 2, Datasets: []string{"Restaurant"}, SizeCap: 40, MatchCap: 15})
	rows, err := s.TableIV()
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Offline <= 0 || r.Online <= 0 {
		t.Errorf("non-positive durations: %+v", r)
	}
	if r.TextualColumns != 2 {
		t.Errorf("textual columns = %d, want 2", r.TextualColumns)
	}
}

func TestSuiteWithGAN(t *testing.T) {
	cfg := quickCfg()
	cfg.UseGAN = true
	s := NewSuite(cfg)
	res, err := s.SERDResult("DBLP-ACM")
	if err != nil {
		t.Fatal(err)
	}
	st := res.Syn.Stats()
	if st.SizeA == 0 || st.SizeB == 0 {
		t.Fatalf("GAN-enabled synthesis produced %+v", st)
	}
}

func TestScaleUp(t *testing.T) {
	s := NewSuite(Config{Seed: 3, Datasets: []string{"Restaurant"}, SizeCap: 50, MatchCap: 20})
	rows, err := s.ScaleUp(1.5)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Syn.SizeA != 75 || r.Syn.SizeB != 75 {
		t.Errorf("scaled sizes = %d/%d, want 75/75", r.Syn.SizeA, r.Syn.SizeB)
	}
	if r.SynF1 <= 0 || r.RealF1 <= 0 {
		t.Errorf("degenerate F1s: %+v", r)
	}
	if _, err := s.ScaleUp(0); err == nil {
		t.Error("zero factor accepted")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes repeatedly")
	}
	s := NewSuite(Config{Seed: 4, Datasets: []string{"Restaurant"}, SizeCap: 40, MatchCap: 15})
	alphaRows, err := s.AblationAlpha("Restaurant", []float64{0.9, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(alphaRows) != 2 {
		t.Fatalf("alpha rows = %d", len(alphaRows))
	}
	if alphaRows[0].Rejected < alphaRows[1].Rejected {
		t.Errorf("smaller alpha should reject at least as much: %+v", alphaRows)
	}
	betaRows, err := s.AblationBeta("Restaurant", []float64{0.1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if betaRows[0].RejectedByD > betaRows[1].RejectedByD {
		t.Errorf("higher beta should reject at least as much: %+v", betaRows)
	}
	bucketRows, err := s.AblationBuckets("Restaurant", []int{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bucketRows[0].MeanError < 0 || bucketRows[0].Epsilon <= 0 {
		t.Errorf("bucket row = %+v", bucketRows[0])
	}
	var buf bytes.Buffer
	PrintAblationAlpha(&buf, "Restaurant", alphaRows)
	PrintAblationBeta(&buf, "Restaurant", betaRows)
	PrintAblationBuckets(&buf, "Restaurant", bucketRows)
	if !strings.Contains(buf.String(), "ALPHA") || !strings.Contains(buf.String(), "BETA") {
		t.Error("ablation printers missing headers")
	}
}

// fitCounter is an S1 backend that counts its fits.
type fitCounter struct {
	generator.Generator
	fits *atomic.Int64
}

func (f fitCounter) Fit(ctx context.Context, real *dataset.ER, opts generator.FitOptions) (generator.Dist, error) {
	f.fits.Add(1)
	return f.Generator.Fit(ctx, real, opts)
}

// TestSERDSynthesesUseSuiteOptions checks that every SERD synthesis the
// suite runs — Table IV's timed run, the scale-up and both ablations —
// fits S1 on the suite's backend and records into the suite's metrics.
func TestSERDSynthesesUseSuiteOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	var fits atomic.Int64
	reg := telemetry.NewRegistry()
	s := NewSuite(Config{
		Seed: 4, Datasets: []string{"Restaurant"}, SizeCap: 40, MatchCap: 15,
		Generator: fitCounter{generator.GMM{}, &fits}, Workers: 1, Metrics: reg,
	})
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"TableIV", func() error { _, err := s.TableIV(); return err }},
		{"ScaleUp", func() error { _, err := s.ScaleUp(1); return err }},
		{"AblationAlpha", func() error { _, err := s.AblationAlpha("Restaurant", []float64{1}); return err }},
		{"AblationBeta", func() error { _, err := s.AblationBeta("Restaurant", []float64{0.5}); return err }},
	} {
		fitsBefore, attemptsBefore := fits.Load(), reg.Counter("core.s2.attempts")
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fits.Load() == fitsBefore {
			t.Errorf("%s synthesized without the suite's S1 backend", tc.name)
		}
		if reg.Counter("core.s2.attempts") == attemptsBefore {
			t.Errorf("%s synthesized without the suite's metrics", tc.name)
		}
	}
}
