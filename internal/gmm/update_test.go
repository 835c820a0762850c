package gmm

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestAccumulatorMatchesBatchOneComponent(t *testing.T) {
	// With a single component the responsibilities are all 1, so the
	// incremental update must reproduce the batch mean and covariance
	// (up to the shared ridge) exactly.
	r := rand.New(rand.NewSource(1))
	xs := make([][]float64, 200)
	for i := range xs {
		xs[i] = []float64{0.4 + 0.1*r.NormFloat64(), 0.6 + 0.2*r.NormFloat64()}
	}
	m, err := Fit(context.Background(), xs[:100], 1, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewAccumulator(m, xs[:100], 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(xs[100:]); err != nil {
		t.Fatal(err)
	}
	full, err := Fit(context.Background(), xs, 1, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	got := acc.Model().Comps[0]
	want := full.Comps[0]
	for j := range want.Mean {
		if math.Abs(got.Mean[j]-want.Mean[j]) > 1e-9 {
			t.Errorf("mean[%d] = %v, want %v", j, got.Mean[j], want.Mean[j])
		}
	}
	for i := range want.Cov.Data {
		// NewAccumulator folds the initial xs through fold(), which applies
		// one extra ridge relative to the batch fit; allow that slack.
		if math.Abs(got.Cov.Data[i]-want.Cov.Data[i]) > 10*DefaultRidge {
			t.Errorf("cov[%d] = %v, want %v", i, got.Cov.Data[i], want.Cov.Data[i])
		}
	}
}

func TestAccumulatorShiftsTowardNewData(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	old := make([][]float64, 100)
	for i := range old {
		old[i] = []float64{0.2 + 0.02*r.NormFloat64()}
	}
	m, err := Fit(context.Background(), old, 1, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewAccumulator(m, old, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := acc.Model().Comps[0].Mean[0]
	fresh := make([][]float64, 100)
	for i := range fresh {
		fresh[i] = []float64{0.8 + 0.02*r.NormFloat64()}
	}
	if err := acc.Add(fresh); err != nil {
		t.Fatal(err)
	}
	after := acc.Model().Comps[0].Mean[0]
	if after <= before {
		t.Errorf("mean did not move toward new data: %v -> %v", before, after)
	}
	if math.Abs(after-0.5) > 0.05 {
		t.Errorf("mean = %v, want ~0.5 (equal-weight pooling)", after)
	}
	if acc.N() != 200 {
		t.Errorf("N = %d, want 200", acc.N())
	}
}

func TestAccumulatorSnapshotIsolation(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	xs := twoClusterData(r, 100)
	m, err := Fit(context.Background(), xs, 2, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewAccumulator(m, xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := acc.Snapshot()
	if err := snap.Add([][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}
	if snap.N() == acc.N() {
		t.Error("snapshot Add changed nothing")
	}
	if acc.N() != len(xs) {
		t.Error("Add on snapshot leaked into the original accumulator")
	}
	// Parameters of original unchanged.
	a := acc.Model().Comps[0].Mean
	b := m.Comps[0].Mean
	for j := range a {
		if a[j] != b[j] {
			// Initial fold recomputes responsibilities but the means should
			// be very close since the same data was used; allow drift.
			if math.Abs(a[j]-b[j]) > 0.05 {
				t.Errorf("original accumulator drifted: %v vs %v", a, b)
			}
		}
	}
}

func TestAccumulatorRejectsDimMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	xs := twoClusterData(r, 50)
	m, err := Fit(context.Background(), xs, 1, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewAccumulator(m, xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Add([][]float64{{1}}); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestJointPosterior(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	// M around (0.9, 0.9), N around (0.1, 0.1).
	var mXs, nXs [][]float64
	for i := 0; i < 200; i++ {
		mXs = append(mXs, []float64{0.9 + 0.03*r.NormFloat64(), 0.9 + 0.03*r.NormFloat64()})
		nXs = append(nXs, []float64{0.1 + 0.03*r.NormFloat64(), 0.1 + 0.03*r.NormFloat64()})
	}
	mModel, err := Fit(context.Background(), mXs, 1, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	nModel, err := Fit(context.Background(), nXs, 1, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJoint(mModel, nModel, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if p := j.PosteriorMatch([]float64{0.9, 0.9}); p < 0.99 {
		t.Errorf("posterior at match center = %v", p)
	}
	if p := j.PosteriorMatch([]float64{0.1, 0.1}); p > 0.01 {
		t.Errorf("posterior at non-match center = %v", p)
	}
	if !j.IsMatch([]float64{0.88, 0.91}) {
		t.Error("point near M center should label matching")
	}
	if j.IsMatch([]float64{0.12, 0.08}) {
		t.Error("point near N center should label non-matching")
	}
}

func TestJointSampleRespectsPi(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	var mXs, nXs [][]float64
	for i := 0; i < 100; i++ {
		mXs = append(mXs, []float64{0.9 + 0.02*r.NormFloat64()})
		nXs = append(nXs, []float64{0.1 + 0.02*r.NormFloat64()})
	}
	mModel, _ := Fit(context.Background(), mXs, 1, FitOptions{Rand: r})
	nModel, _ := Fit(context.Background(), nXs, 1, FitOptions{Rand: r})
	j, err := NewJoint(mModel, nModel, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	const n = 10000
	for i := 0; i < n; i++ {
		x, matching := j.Sample(r)
		if matching {
			matches++
			if x[0] < 0.5 {
				t.Fatalf("matching sample drawn from N region: %v", x)
			}
		} else if x[0] > 0.5 {
			t.Fatalf("non-matching sample drawn from M region: %v", x)
		}
	}
	frac := float64(matches) / n
	if math.Abs(frac-0.25) > 0.02 {
		t.Errorf("matching fraction = %v, want ~0.25", frac)
	}
}

func TestJointValidation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs1 := [][]float64{{0.1}, {0.2}, {0.3}}
	xs2 := [][]float64{{0.1, 0.5}, {0.2, 0.5}, {0.3, 0.5}}
	m1, _ := Fit(context.Background(), xs1, 1, FitOptions{Rand: r})
	m2, _ := Fit(context.Background(), xs2, 1, FitOptions{Rand: r})
	if _, err := NewJoint(m1, m2, 0.5); err == nil {
		t.Error("expected dim mismatch error")
	}
	if _, err := NewJoint(m1, m1, -0.1); err == nil {
		t.Error("expected pi range error")
	}
	if _, err := NewJoint(nil, m1, 0.5); err == nil {
		t.Error("expected nil model error")
	}
}

func TestJSDZeroForIdenticalDistributions(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	xs := twoClusterData(r, 200)
	m, _ := Fit(context.Background(), xs, 2, FitOptions{Rand: r})
	j, err := NewJoint(m, m.Clone(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	d := JSD(j, j, 512, r)
	if d > 1e-9 {
		t.Errorf("JSD of identical joints = %v, want ~0", d)
	}
}

func TestJSDSeparatesDifferentDistributions(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	mk := func(center float64) *Joint {
		var xs [][]float64
		for i := 0; i < 200; i++ {
			xs = append(xs, []float64{center + 0.02*r.NormFloat64()})
		}
		m, _ := Fit(context.Background(), xs, 1, FitOptions{Rand: r})
		j, _ := NewJoint(m, m.Clone(), 0.5)
		return j
	}
	near := JSD(mk(0.5), mk(0.52), 512, r)
	far := JSD(mk(0.1), mk(0.9), 512, r)
	if far <= near {
		t.Errorf("JSD(far)=%v should exceed JSD(near)=%v", far, near)
	}
	if far > math.Log(2)+0.05 {
		t.Errorf("JSD exceeds log 2 bound: %v", far)
	}
}
