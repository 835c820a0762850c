package gmm

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"serd/internal/parallel"
	"serd/internal/telemetry"
)

// cancelOnObserve cancels a context from inside the EM loop: the
// "gmm.em.loglik_improvement" observation fires once per iteration after
// the first, so cancellation lands mid-fit, between iterations.
type cancelOnObserve struct {
	telemetry.Recorder
	name   string
	cancel context.CancelFunc
	fired  atomic.Int32
}

func (c *cancelOnObserve) Observe(name string, v float64) {
	if name == c.name {
		c.fired.Add(1)
		c.cancel()
	}
	c.Recorder.Observe(name, v)
}

func (c *cancelOnObserve) StartSpan(name string) telemetry.Span { return c.Recorder.StartSpan(name) }

func slowData(r *rand.Rand, n int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = []float64{r.NormFloat64(), r.NormFloat64()}
	}
	return xs
}

func TestFitCancelMidEM(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs := slowData(r, 400)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &cancelOnObserve{Recorder: telemetry.Nop, name: "gmm.em.loglik_improvement", cancel: cancel}
	_, err := Fit(ctx, xs, 3, FitOptions{Rand: r, Metrics: rec, Tol: -1, MaxIter: 50})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Fit under mid-EM cancel = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "gmm: em canceled after") {
		t.Fatalf("error %q does not name the EM loop", err)
	}
	// Prompt return: the loop must stop at the next iteration boundary,
	// not run to MaxIter. The observation fires from iteration 2 onward,
	// so exactly one improvement is observed before the cancel lands.
	if fired := rec.fired.Load(); fired != 1 {
		t.Fatalf("EM ran %d iterations past the cancel, want return within one", fired-1)
	}
}

func TestFitAICCancelStopsModelSearch(t *testing.T) {
	for _, pool := range []*parallel.Pool{nil, parallel.New(2, nil), parallel.New(4, nil)} {
		r := rand.New(rand.NewSource(7))
		xs := slowData(r, 200)
		ctx, cancel := context.WithCancel(context.Background())
		rec := &cancelOnObserve{Recorder: telemetry.Nop, name: "gmm.em.loglik_improvement", cancel: cancel}
		_, err := FitAIC(ctx, xs, 4, FitOptions{Rand: r, Metrics: rec, Tol: -1, MaxIter: 50, Pool: pool})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: FitAIC under cancel = %v, want context.Canceled", pool.Workers(), err)
		}
		// The search must stop at the first canceled candidate instead of
		// trying every component count. With no pool the candidates run
		// one after another, longest first: the cancel lands in the g=4
		// fit, and the candidates after it stop at their first iteration
		// check, before any improvement fires. On a pool, each candidate
		// running when the cancel lands can fire once: at most one per
		// worker.
		if fired := rec.fired.Load(); fired < 1 || fired > int32(pool.Workers()) {
			t.Fatalf("workers=%d: model search continued after cancel (%d fits observed an improvement)", pool.Workers(), fired)
		}
	}
}

func TestFitPrecanceledContext(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs := slowData(r, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fit(ctx, xs, 1, FitOptions{Rand: r}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fit with pre-canceled ctx = %v, want context.Canceled", err)
	}
}

// TestFitNilContext pins the nil-tolerance contract relied on by
// internal callers that have no context to pass.
func TestFitNilContext(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs := slowData(r, 50)
	if _, err := Fit(nil, xs, 1, FitOptions{Rand: r}); err != nil {
		t.Fatalf("Fit(nil ctx) = %v", err)
	}
}
