package matcher

import (
	"math"
	"math/rand"
	"testing"
)

// separableData builds a matcher workload mimicking ER similarity vectors:
// matches cluster high, non-matches cluster low, with the given label
// noise fraction.
func separableData(r *rand.Rand, n int, noise float64) (xs [][]float64, ys []bool) {
	for i := 0; i < n; i++ {
		match := i%4 == 0 // ~π = 0.25
		var x []float64
		if match {
			x = []float64{0.9 + 0.05*r.NormFloat64(), 0.8 + 0.1*r.NormFloat64(), 0.2 + 0.1*r.NormFloat64(), 1}
		} else {
			x = []float64{0.1 + 0.05*r.NormFloat64(), 0.1 + 0.1*r.NormFloat64(), 0.15 + 0.1*r.NormFloat64(), 0.5 + 0.3*r.NormFloat64()}
		}
		if r.Float64() < noise {
			match = !match
		}
		xs = append(xs, x)
		ys = append(ys, match)
	}
	return xs, ys
}

func allMatchers() map[string]Matcher {
	return map[string]Matcher{
		"tree":   &DecisionTree{},
		"forest": &RandomForest{Seed: 1},
		"mlp":    &MLP{Seed: 1, Epochs: 150},
	}
}

func TestMatchersLearnSeparableData(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	trainX, trainY := separableData(r, 400, 0)
	testX, testY := separableData(r, 200, 0)
	for name, m := range allMatchers() {
		if err := m.Fit(trainX, trainY); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		met := Evaluate(m, testX, testY)
		if met.F1() < 0.95 {
			t.Errorf("%s: F1 = %v on separable data (%+v)", name, met.F1(), met)
		}
	}
}

func TestMatchersTolerateLabelNoise(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	trainX, trainY := separableData(r, 400, 0.05)
	testX, testY := separableData(r, 200, 0)
	for name, m := range allMatchers() {
		if err := m.Fit(trainX, trainY); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		met := Evaluate(m, testX, testY)
		if met.F1() < 0.85 {
			t.Errorf("%s: F1 = %v with 5%% label noise", name, met.F1())
		}
	}
}

func TestFitValidation(t *testing.T) {
	for name, m := range allMatchers() {
		if err := m.Fit(nil, nil); err == nil {
			t.Errorf("%s: empty training accepted", name)
		}
		if err := m.Fit([][]float64{{1}, {2}}, []bool{true}); err == nil {
			t.Errorf("%s: mismatched labels accepted", name)
		}
		if err := m.Fit([][]float64{{1}, {2}}, []bool{true, true}); err == nil {
			t.Errorf("%s: single-class training accepted", name)
		}
		if err := m.Fit([][]float64{{1, 2}, {1}}, []bool{true, false}); err == nil {
			t.Errorf("%s: ragged vectors accepted", name)
		}
	}
}

func TestScorersInRange(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	xs, ys := separableData(r, 200, 0)
	for name, m := range allMatchers() {
		if err := m.Fit(xs, ys); err != nil {
			t.Fatal(err)
		}
		s, ok := m.(Scorer)
		if !ok {
			t.Fatalf("%s does not implement Scorer", name)
		}
		for i := 0; i < 50; i++ {
			v := s.Score(xs[i])
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("%s: score %v out of range", name, v)
			}
		}
	}
}

func TestMetrics(t *testing.T) {
	m := Metrics{TP: 8, FP: 2, TN: 85, FN: 5}
	if p := m.Precision(); math.Abs(p-0.8) > 1e-12 {
		t.Errorf("precision = %v", p)
	}
	if r := m.Recall(); math.Abs(r-8.0/13.0) > 1e-12 {
		t.Errorf("recall = %v", r)
	}
	wantF1 := 2 * 0.8 * (8.0 / 13.0) / (0.8 + 8.0/13.0)
	if f := m.F1(); math.Abs(f-wantF1) > 1e-12 {
		t.Errorf("F1 = %v, want %v", f, wantF1)
	}
}

func TestMetricsDegenerate(t *testing.T) {
	var zero Metrics
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 {
		t.Error("zero metrics must not NaN")
	}
}

func TestDiff(t *testing.T) {
	a := Metrics{TP: 10, FN: 0, FP: 0, TN: 10} // perfect
	b := Metrics{TP: 5, FN: 5, FP: 5, TN: 5}   // P=0.5 R=0.5
	dp, dr, df := Diff(a, b)
	if math.Abs(dp-0.5) > 1e-12 || math.Abs(dr-0.5) > 1e-12 || math.Abs(df-0.5) > 1e-12 {
		t.Errorf("Diff = %v %v %v", dp, dr, df)
	}
}

func TestEvaluateConfusion(t *testing.T) {
	// A constant-true matcher gives TP=|pos|, FP=|neg|.
	r := rand.New(rand.NewSource(4))
	xs, ys := separableData(r, 100, 0)
	m := &MLP{Seed: 4, Epochs: 1}
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	met := Evaluate(m, xs, ys)
	if met.TP+met.FP+met.TN+met.FN != 100 {
		t.Errorf("confusion matrix does not cover test set: %+v", met)
	}
}

func TestDecisionTreeRespectsDepth(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	xs, ys := separableData(r, 200, 0.2)
	tr := &DecisionTree{MaxDepth: 1}
	if err := tr.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	depth := treeDepth(tr.root)
	if depth > 1 {
		t.Errorf("depth = %d, want <= 1", depth)
	}
}

func treeDepth(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := treeDepth(n.left), treeDepth(n.right)
	if l > r {
		return 1 + l
	}
	return 1 + r
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	trainX, trainY := separableData(r, 300, 0.15)
	testX, testY := separableData(r, 300, 0)
	tree := &DecisionTree{MaxDepth: 12, MinLeaf: 1}
	forest := &RandomForest{Trees: 30, MaxDepth: 12, Seed: 6}
	if err := tree.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	if err := forest.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	ft := Evaluate(tree, testX, testY).F1()
	ff := Evaluate(forest, testX, testY).F1()
	if ff < ft-0.02 {
		t.Errorf("forest F1 %v clearly below single tree %v", ff, ft)
	}
}

func TestBestThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs, ys := separableData(r, 300, 0)
	m := &MLP{Seed: 7, Epochs: 30} // deliberately under-trained
	if err := m.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	defaultMet := Evaluate(m, xs, ys)
	threshold, tunedMet := BestThreshold(m, xs, ys)
	if threshold < 0 || threshold > 1 {
		t.Fatalf("threshold = %v", threshold)
	}
	if tunedMet.F1()+1e-9 < defaultMet.F1() {
		t.Errorf("tuned F1 %v below default-threshold F1 %v", tunedMet.F1(), defaultMet.F1())
	}
	if tunedMet.TP+tunedMet.FP+tunedMet.TN+tunedMet.FN != len(xs) {
		t.Errorf("tuned confusion does not cover the set: %+v", tunedMet)
	}
}

func TestBestThresholdPerfectSeparation(t *testing.T) {
	// Scores 0.9/0.8 for positives, 0.2/0.1 for negatives: some threshold
	// must reach F1 = 1.
	s := fixedScorer{scores: map[float64]float64{1: 0.9, 2: 0.8, 3: 0.2, 4: 0.1}}
	xs := [][]float64{{1}, {2}, {3}, {4}}
	ys := []bool{true, true, false, false}
	_, met := BestThreshold(s, xs, ys)
	if met.F1() != 1 {
		t.Errorf("F1 = %v, want 1", met.F1())
	}
}

type fixedScorer struct{ scores map[float64]float64 }

func (f fixedScorer) Score(x []float64) float64 { return f.scores[x[0]] }
