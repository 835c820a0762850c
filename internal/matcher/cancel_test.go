package matcher

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"serd/internal/telemetry"
)

func cancelFixture() ([][]float64, []bool) {
	r := rand.New(rand.NewSource(11))
	xs := make([][]float64, 120)
	ys := make([]bool, len(xs))
	for i := range xs {
		base := 0.2
		if i%3 == 0 {
			base = 0.8
			ys[i] = true
		}
		xs[i] = []float64{base + 0.1*r.Float64(), base + 0.1*r.Float64()}
	}
	return xs, ys
}

// TestFitContextCancelsIterativeMatchers pins that every iterative
// matcher implements ContextFitter and returns the wrapped cancellation
// at its next iteration boundary.
func TestFitContextCancelsIterativeMatchers(t *testing.T) {
	xs, ys := cancelFixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		m    Matcher
	}{
		{"mlp", &MLP{}},
		{"forest", &RandomForest{}},
		{"zeroer", &ZeroER{}},
	} {
		if _, ok := tc.m.(ContextFitter); !ok {
			t.Errorf("%s does not implement ContextFitter", tc.name)
			continue
		}
		if err := FitContext(ctx, tc.m, xs, ys); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: FitContext under canceled ctx = %v, want context.Canceled", tc.name, err)
		}
	}
}

// TestFitContextFallsBackToPlainFit pins the dispatcher contract for
// matchers without a cancelable training path.
func TestFitContextFallsBackToPlainFit(t *testing.T) {
	xs, ys := cancelFixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := &DecisionTree{}
	if err := FitContext(ctx, m, xs, ys); err != nil {
		t.Fatalf("FitContext on a plain Fitter = %v, want nil (uncancelable fallback)", err)
	}
	if !m.Predict([]float64{0.9, 0.9}) {
		t.Fatal("fallback Fit did not train the matcher")
	}
}

// TestFitContextUntriggeredIsNoop pins determinism: training under an
// untriggered context yields exactly the model plain Fit yields.
func TestFitContextUntriggeredIsNoop(t *testing.T) {
	xs, ys := cancelFixture()
	plain := &RandomForest{Trees: 5, Seed: 1}
	if err := plain.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	armed := &RandomForest{Trees: 5, Seed: 1}
	if err := armed.FitContext(ctx, xs, ys); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, armed) {
		t.Fatal("an untriggered context changed the fitted model")
	}
}

// TestInstrumentForwardsFitContext pins that wrapping a matcher keeps its
// cancelable training path reachable through the dispatcher.
func TestInstrumentForwardsFitContext(t *testing.T) {
	xs, ys := cancelFixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := telemetry.NewRegistry()
	wrapped := Instrument("mlp", &MLP{}, rec)
	if err := FitContext(ctx, wrapped, xs, ys); !errors.Is(err, context.Canceled) {
		t.Fatalf("instrumented FitContext = %v, want context.Canceled", err)
	}
}
