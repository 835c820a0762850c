// Package matcher implements the ER matchers used in the paper's
// evaluation: a random forest over similarity vectors standing in for the
// Magellan system's default matcher, a neural matcher standing in for
// Deepmatcher, the decision tree the forest is built from, the
// unsupervised ZeroER matcher, and the precision/recall/F1 metrics of §VII.
package matcher

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Matcher is a binary classifier over similarity vectors.
type Matcher interface {
	// Fit trains on similarity vectors xs with match labels ys.
	Fit(xs [][]float64, ys []bool) error
	// Predict labels one similarity vector.
	Predict(x []float64) bool
}

// ContextFitter is optionally implemented by matchers whose training is
// iterative enough to be worth canceling between epochs, trees or EM
// iterations. FitContext with a nil or untriggered context must behave
// exactly like Fit — training under a context never changes the fitted
// model.
type ContextFitter interface {
	Matcher
	// FitContext trains like Fit but returns the context's error (wrapped
	// with the matcher's position) at the next iteration boundary after
	// cancellation. Matcher training keeps no partial checkpoint: a
	// canceled fit restarts from scratch.
	FitContext(ctx context.Context, xs [][]float64, ys []bool) error
}

// FitContext trains m under ctx when it implements ContextFitter and
// falls back to the plain (uncancelable) Fit otherwise — the uniform
// entry point pipeline stages use so the Matcher interface itself stays
// unchanged for external implementations.
func FitContext(ctx context.Context, m Matcher, xs [][]float64, ys []bool) error {
	if cf, ok := m.(ContextFitter); ok {
		return cf.FitContext(ctx, xs, ys)
	}
	return m.Fit(xs, ys)
}

// ctxErr reports the context's error, tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Scorer is implemented by matchers that expose a matching probability.
type Scorer interface {
	// Score returns P(match | x) in [0, 1].
	Score(x []float64) float64
}

// Metrics are the evaluation measures of §VII Exp-2.
type Metrics struct {
	TP, FP, TN, FN int
}

// Evaluate runs m over the test set and tallies the confusion matrix.
func Evaluate(m Matcher, xs [][]float64, ys []bool) Metrics {
	var out Metrics
	for i, x := range xs {
		pred := m.Predict(x)
		switch {
		case pred && ys[i]:
			out.TP++
		case pred && !ys[i]:
			out.FP++
		case !pred && ys[i]:
			out.FN++
		default:
			out.TN++
		}
	}
	return out
}

// Precision returns TP / (TP + FP), or 0 when undefined.
func (m Metrics) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Recall returns TP / (TP + FN), or 0 when undefined.
func (m Metrics) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (m Metrics) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the metrics like the paper's figures report them.
func (m Metrics) String() string {
	return fmt.Sprintf("P=%.4f R=%.4f F1=%.4f", m.Precision(), m.Recall(), m.F1())
}

// Diff returns the absolute performance differences |eval(M_real) −
// eval(M_syn)| of Equation 2, for precision, recall and F1.
func Diff(a, b Metrics) (dp, dr, df float64) {
	return math.Abs(a.Precision() - b.Precision()),
		math.Abs(a.Recall() - b.Recall()),
		math.Abs(a.F1() - b.F1())
}

func validateTraining(xs [][]float64, ys []bool) (int, error) {
	if len(xs) == 0 {
		return 0, errors.New("matcher: no training examples")
	}
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("matcher: %d vectors, %d labels", len(xs), len(ys))
	}
	dim := len(xs[0])
	for i, x := range xs {
		if len(x) != dim {
			return 0, fmt.Errorf("matcher: example %d has dim %d, want %d", i, len(x), dim)
		}
	}
	hasPos, hasNeg := false, false
	for _, y := range ys {
		if y {
			hasPos = true
		} else {
			hasNeg = true
		}
	}
	if !hasPos || !hasNeg {
		return 0, errors.New("matcher: training data needs both classes")
	}
	return dim, nil
}

// BestThreshold sweeps decision thresholds over a scorer's outputs on a
// labeled validation set and returns the threshold maximizing F1, with the
// metrics achieved there. The candidate thresholds are the observed scores
// themselves (any threshold between two adjacent scores is equivalent).
func BestThreshold(s Scorer, xs [][]float64, ys []bool) (float64, Metrics) {
	type scored struct {
		score float64
		match bool
	}
	items := make([]scored, len(xs))
	totalPos := 0
	for i, x := range xs {
		items[i] = scored{score: s.Score(x), match: ys[i]}
		if ys[i] {
			totalPos++
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].score > items[j].score })
	// Walking the sorted scores from high to low, predicting the top-k as
	// matching: TP and FP accumulate, FN = totalPos - TP.
	bestF1, bestThreshold := -1.0, 0.5
	var bestMet Metrics
	tp, fp := 0, 0
	for i, it := range items {
		if it.match {
			tp++
		} else {
			fp++
		}
		// A threshold just below items[i].score predicts the first i+1 as
		// matching; skip ties (same score must share a side).
		if i+1 < len(items) && items[i+1].score == it.score {
			continue
		}
		met := Metrics{TP: tp, FP: fp, FN: totalPos - tp, TN: len(items) - (i + 1) - (totalPos - tp)}
		if f1 := met.F1(); f1 > bestF1 {
			bestF1 = f1
			bestThreshold = it.score
			bestMet = met
		}
	}
	return bestThreshold, bestMet
}
