package matcher

import (
	"math/rand"
	"testing"
)

func TestZeroERLearnsWithoutLabels(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs, ys := separableData(r, 400, 0)
	z := &ZeroER{Seed: 1}
	if err := z.FitUnlabeled(xs); err != nil {
		t.Fatal(err)
	}
	met := Evaluate(z, xs, ys)
	if met.F1() < 0.9 {
		t.Errorf("ZeroER F1 = %v on separable data (%+v)", met.F1(), met)
	}
	if z.Joint() == nil {
		t.Error("Joint not exposed after fitting")
	}
}

func TestZeroERFitIgnoresLabels(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	xs, ys := separableData(r, 300, 0)
	flipped := make([]bool, len(ys))
	for i, y := range ys {
		flipped[i] = !y
	}
	a := &ZeroER{Seed: 2}
	if err := a.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	b := &ZeroER{Seed: 2}
	if err := b.Fit(xs, flipped); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if a.Predict(xs[i]) != b.Predict(xs[i]) {
			t.Fatal("labels leaked into the unsupervised fit")
		}
	}
}

func TestZeroERMultiComponent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	xs, ys := separableData(r, 400, 0)
	z := &ZeroER{ComponentsPerClass: 2, Seed: 3}
	if err := z.FitUnlabeled(xs); err != nil {
		t.Fatal(err)
	}
	if met := Evaluate(z, xs, ys); met.F1() < 0.75 {
		t.Errorf("2-component ZeroER F1 = %v", met.F1())
	}
}

func TestZeroERValidation(t *testing.T) {
	z := &ZeroER{}
	if err := z.FitUnlabeled(nil); err == nil {
		t.Error("empty input accepted")
	}
	if z.Score([]float64{0.5}) != 0 {
		t.Error("unfitted Score should be 0")
	}
}
