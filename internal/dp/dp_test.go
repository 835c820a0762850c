package dp

import (
	"math"
	"math/rand"
	"testing"

	"serd/internal/nn"
)

func TestNewSGDValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := []*nn.Tensor{nn.NewParam(1, 2)}
	cases := []struct {
		lr, clip, noise float64
		r               *rand.Rand
	}{
		{0, 1, 1, r},
		{0.1, 0, 1, r},
		{0.1, 1, -1, r},
		{0.1, 1, 1, nil},
	}
	for i, c := range cases {
		if _, err := NewSGD(p, c.lr, c.clip, c.noise, c.r); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewSGD(nil, 0.1, 1, 1, r); err == nil {
		t.Error("empty params accepted")
	}
}

func TestAccumulateClipsPerExample(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	p := nn.NewParam(1, 2)
	o, err := NewSGD([]*nn.Tensor{p}, 1.0, 1.0, 0, r) // no noise
	if err != nil {
		t.Fatal(err)
	}
	// Example 1: gradient (3, 4), norm 5 -> clipped to (0.6, 0.8).
	p.Grad[0], p.Grad[1] = 3, 4
	o.AccumulateExample()
	// Example 2: gradient (0.3, 0), norm < 1 -> unchanged.
	p.Grad[0], p.Grad[1] = 0.3, 0
	o.AccumulateExample()
	if err := o.Step(); err != nil {
		t.Fatal(err)
	}
	// Update = lr * (0.6+0.3, 0.8+0)/2 = (0.45, 0.4).
	if math.Abs(p.Data[0]+0.45) > 1e-12 || math.Abs(p.Data[1]+0.4) > 1e-12 {
		t.Errorf("params after step = %v", p.Data)
	}
	if o.Steps() != 1 {
		t.Errorf("Steps = %d", o.Steps())
	}
}

func TestAccumulateZeroesGrads(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p := nn.NewParam(1, 2)
	o, _ := NewSGD([]*nn.Tensor{p}, 0.1, 1, 1, r)
	p.Grad[0] = 5
	o.AccumulateExample()
	if p.Grad[0] != 0 {
		t.Error("AccumulateExample must zero gradients")
	}
}

func TestStepWithoutExamplesErrors(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	p := nn.NewParam(1, 1)
	o, _ := NewSGD([]*nn.Tensor{p}, 0.1, 1, 1, r)
	if err := o.Step(); err == nil {
		t.Error("empty Step accepted")
	}
}

func TestNoiseIsApplied(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p := nn.NewParam(1, 1)
	o, _ := NewSGD([]*nn.Tensor{p}, 1.0, 1.0, 5.0, r)
	// Zero gradient: any parameter movement is pure noise.
	o.AccumulateExample()
	if err := o.Step(); err != nil {
		t.Fatal(err)
	}
	if p.Data[0] == 0 {
		t.Error("no noise applied despite sigma=5")
	}
}

func TestDPSGDStillLearns(t *testing.T) {
	// With modest noise, DP-SGD must still fit a trivial regression —
	// the paper trains whole transformers this way.
	r := rand.New(rand.NewSource(6))
	w := nn.NewParam(1, 1)
	o, _ := NewSGD([]*nn.Tensor{w}, 0.05, 1.0, 0.5, r)
	target := 2.0
	for step := 0; step < 300; step++ {
		for ex := 0; ex < 8; ex++ {
			nn.MSE(w, []float64{target}).Backward()
			o.AccumulateExample()
		}
		if err := o.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(w.Data[0]-target) > 0.5 {
		t.Errorf("w = %v, want ~%v", w.Data[0], target)
	}
}

func TestAccountantMonotoneInSteps(t *testing.T) {
	a := Accountant{Q: 0.01, Noise: 1.1}
	e1 := a.Epsilon(100, 1e-5)
	e2 := a.Epsilon(1000, 1e-5)
	if !(e1 > 0 && e2 > e1) {
		t.Errorf("epsilon not increasing with steps: %v, %v", e1, e2)
	}
}

func TestAccountantMonotoneInNoise(t *testing.T) {
	lo := Accountant{Q: 0.01, Noise: 0.8}.Epsilon(500, 1e-5)
	hi := Accountant{Q: 0.01, Noise: 4.0}.Epsilon(500, 1e-5)
	if hi >= lo {
		t.Errorf("more noise must mean smaller epsilon: σ=0.8 -> %v, σ=4 -> %v", lo, hi)
	}
}

func TestAccountantNoNoiseIsInfinite(t *testing.T) {
	if e := (Accountant{Q: 0.01, Noise: 0}).Epsilon(10, 1e-5); !math.IsInf(e, 1) {
		t.Errorf("epsilon = %v, want +Inf", e)
	}
}

func TestNoiseForEpsilonInvertsAccountant(t *testing.T) {
	q, steps, delta := 0.02, 400, 1e-5
	for _, eps := range []float64{0.5, 1, 4} {
		sigma, err := NoiseForEpsilon(q, steps, eps, delta)
		if err != nil {
			t.Fatal(err)
		}
		got := Accountant{Q: q, Noise: sigma}.Epsilon(steps, delta)
		if got > eps*1.001 {
			t.Errorf("eps target %v: sigma %v achieves %v", eps, sigma, got)
		}
	}
	if _, err := NoiseForEpsilon(0.5, 1, -1, 1e-5); err == nil {
		t.Error("negative epsilon accepted")
	}
}

func TestLaplaceMechanismDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 20000
	sum, absSum := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := LaplaceMechanism(0, 1, 1, r)
		sum += v
		absSum += math.Abs(v)
	}
	if m := sum / n; math.Abs(m) > 0.05 {
		t.Errorf("Laplace mean = %v, want ~0", m)
	}
	// E|Lap(b)| = b = sensitivity/epsilon = 1.
	if m := absSum / n; math.Abs(m-1) > 0.05 {
		t.Errorf("Laplace mean abs = %v, want ~1", m)
	}
}

func TestPartialLotEpsilonRegression(t *testing.T) {
	const (
		noise = 1.1
		delta = 1e-5
	)
	correct := EpsilonForLots(noise, 6, 0.4, 3, 0.2, delta)
	old := Accountant{Q: 0.4, Noise: noise}.Epsilon(9, delta)
	if !(correct < old) {
		t.Fatalf("true-q ε %v not below fixed-q ε %v", correct, old)
	}

	// Step-wise accounting must agree with the closed form.
	acct := &RDPAccountant{Noise: noise}
	for epoch := 0; epoch < 3; epoch++ {
		acct.Account(0.4)
		acct.Account(0.4)
		acct.Account(0.2)
	}
	if acct.Steps() != 9 {
		t.Fatalf("Steps = %d, want 9", acct.Steps())
	}
	if got := acct.Epsilon(delta); math.Abs(got-correct) > 1e-9 {
		t.Fatalf("step-wise ε %v, closed-form %v", got, correct)
	}
}

// TestEpsilonForLotsMatchesAccountantWithoutTail pins bit-identical
// recomputation of pre-fix ledger entries: with no tail steps the closed
// form must evaluate the exact expression of the fixed-q Accountant.
func TestEpsilonForLotsMatchesAccountantWithoutTail(t *testing.T) {
	for _, c := range []struct {
		noise, q, delta float64
		steps           int
	}{
		{1.1, 0.4, 1e-5, 9},
		{0.7, 0.05, 1e-6, 120},
		{2.3, 1.0 / 3.0, 1e-5, 7},
	} {
		want := Accountant{Q: c.q, Noise: c.noise}.Epsilon(c.steps, c.delta)
		got := EpsilonForLots(c.noise, c.steps, c.q, 0, 0, c.delta)
		if got != want {
			t.Fatalf("EpsilonForLots(%+v) = %v, want %v (must be bit-identical)", c, got, want)
		}
	}
}

// TestRDPAccountantStateRoundTrip pins exact checkpoint/restore: an
// accountant restored mid-run and driven forward must match one that never
// stopped, bit for bit.
func TestRDPAccountantStateRoundTrip(t *testing.T) {
	a := &RDPAccountant{Noise: 1.3}
	for i := 0; i < 5; i++ {
		a.Account(0.25)
	}
	b := RDPFromState(a.State())
	for i := 0; i < 4; i++ {
		a.Account(0.1)
		b.Account(0.1)
	}
	if a.Epsilon(1e-5) != b.Epsilon(1e-5) {
		t.Fatalf("restored accountant diverged: %v != %v", b.Epsilon(1e-5), a.Epsilon(1e-5))
	}
	if a.State() != b.State() {
		t.Fatalf("states differ: %+v vs %+v", a.State(), b.State())
	}
}
