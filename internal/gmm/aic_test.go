package gmm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"serd/internal/parallel"
	"serd/internal/telemetry"
)

// serialFitAIC is the model search as a plain g = 1..maxG loop of Fit
// calls, keeping the first strictly smallest AIC: the reference FitAIC's
// concurrent candidates must reproduce bit for bit.
func serialFitAIC(xs [][]float64, maxG int, opts FitOptions) (*Model, error) {
	var best *Model
	bestScore := math.Inf(1)
	var firstErr error
	for g := 1; g <= max(maxG, 1); g++ {
		m, err := Fit(context.Background(), xs, g, opts)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if score := m.AIC(xs); score < bestScore {
			bestScore = score
			best = m
		}
	}
	if best == nil {
		return nil, fmt.Errorf("gmm: no candidate model fit: %w", firstErr)
	}
	return best, nil
}

func sameModel(t *testing.T, label string, got, want *Model) {
	t.Helper()
	if len(got.Comps) != len(want.Comps) {
		t.Fatalf("%s: %d components, want %d", label, len(got.Comps), len(want.Comps))
	}
	for k := range want.Comps {
		sameComponent(t, fmt.Sprintf("%s comp %d", label, k), got.Comps[k], want.Comps[k])
	}
}

// TestFitAICWorkerInvariant pins FitAIC to the serial g = 1..maxG search:
// the same model bits, the same error, the same counters and the same
// next draw from opts.Rand at a nil pool and at any worker count.
func TestFitAICWorkerInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	bimodal := twoClusterData(r, 150)
	tiny := twoClusterData(r, 1) // n = 2 < maxG: clamped candidates
	ragged := [][]float64{{0.1, 0.2}, {0.3}}
	line := make([][]float64, len(bimodal)) // two tight clusters on one axis
	for i, x := range bimodal {
		line[i] = x[:1]
	}
	cases := []struct {
		name  string
		xs    [][]float64
		maxG  int
		ridge float64
		fails bool // every candidate fails
	}{
		{"bimodal", bimodal, 4, 0, false},
		{"clamped", tiny, 4, 0, false},
		// A negative ridge leaves the tight single clusters of g ≥ 2
		// with negative variances, so those candidates fail in their
		// M-step while the g = 1 fit on the wide global spread survives.
		{"failing-candidates", line, 4, -0.005, false},
		{"all-fail", ragged, 3, 0, true},
		{"single", bimodal, 1, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refReg := telemetry.NewRegistry()
			refRand := rand.New(rand.NewSource(5))
			want, wantErr := serialFitAIC(tc.xs, tc.maxG, FitOptions{Rand: refRand, Ridge: tc.ridge, Metrics: refReg})
			if (wantErr != nil) != tc.fails {
				t.Fatalf("reference error = %v, want failure %v", wantErr, tc.fails)
			}
			if tc.name == "failing-candidates" {
				if _, err := Fit(context.Background(), tc.xs, 2, FitOptions{Rand: rand.New(rand.NewSource(5)), Ridge: tc.ridge}); err == nil {
					t.Fatal("the g=2 candidate fits; the case no longer covers a failing candidate")
				}
			}
			wantNext := refRand.Int63()
			pools := []*parallel.Pool{nil}
			for _, w := range []int{1, 2, 4, 13} {
				pools = append(pools, parallel.New(w, nil))
			}
			var gauge float64
			for i, pool := range pools {
				label := fmt.Sprintf("workers=%d", pool.Workers())
				if pool == nil {
					label = "nil pool"
				}
				reg := telemetry.NewRegistry()
				rnd := rand.New(rand.NewSource(5))
				got, err := FitAIC(context.Background(), tc.xs, tc.maxG, FitOptions{Rand: rnd, Ridge: tc.ridge, Metrics: reg, Pool: pool})
				if tc.fails {
					if err == nil || err.Error() != wantErr.Error() {
						t.Fatalf("%s: error %v, want %v", label, err, wantErr)
					}
				} else {
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameModel(t, label, got, want)
				}
				if next := rnd.Int63(); next != wantNext {
					t.Fatalf("%s: next draw %d, want %d: the seeds drew a different stream", label, next, wantNext)
				}
				if c, want := reg.Snapshot().Counters, refReg.Snapshot().Counters; !reflect.DeepEqual(c, want) {
					t.Fatalf("%s: counters %v, want %v", label, c, want)
				}
				ll := reg.Snapshot().Gauges["gmm.em.loglik"]
				if i == 0 {
					gauge = ll
				} else if ll != gauge {
					t.Fatalf("%s: gmm.em.loglik = %v, want %v as at a nil pool", label, ll, gauge)
				}
			}
		})
	}
}
