package main

import (
	"context"
	"math"
	"math/rand"
	"sync"

	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/gmm"
	"serd/internal/matcher"
	"serd/internal/privacy"
)

// Quality-metric settings. Each metric draws from its own fixed RNG
// stream derived from the workload seed, so a seed's values repeat
// exactly.
const (
	dcrRealSample = 50   // real entities DCR examines
	jsdSamples    = 8192 // Monte-Carlo samples of the fidelity JSD
	negPerPos     = 3    // matcher workload negatives per match
	synNegatives  = 1000 // uniform non-matching vectors in the O_syn fit
)

// qualityMetrics are the end-to-end metrics read from a run's output.
var qualityMetrics = []string{"dcr", "match_f1", "fidelity_jsd", "match_density_err"}

// quality computes the qualityMetrics from the reloaded output syn, the
// real inputs and the run's O_real. A metric that cannot be computed is
// left nil (reported as null, never as 0).
func quality(real, syn *dataset.ER, oReal generator.Dist, seed int64) map[string]*float64 {
	fns := []func() (float64, bool){
		func() (float64, bool) {
			v, err := privacy.DCR(real, syn, privacy.Options{MaxReal: dcrRealSample, Rand: rand.New(rand.NewSource(seed + 201))})
			return v, err == nil
		},
		func() (float64, bool) { return matchF1(real, syn, seed) },
		func() (float64, bool) { return fidelityJSD(syn, oReal, seed) },
		func() (float64, bool) { return matchDensityErr(real, syn) },
	}
	// The metrics are independent reads of the two datasets; they run
	// side by side, after the timed phases.
	vals := make([]*float64, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func(i int, fn func() (float64, bool)) {
			defer wg.Done()
			if v, ok := fn(); ok {
				vals[i] = &v
			}
		}(i, fn)
	}
	wg.Wait()
	q := make(map[string]*float64, len(vals))
	for i, name := range qualityMetrics {
		q[name] = vals[i]
	}
	return q
}

// matchF1 follows the paper's Exp-2 protocol: a random forest trained on
// the output's labeled pairs, scored on the real labeled pairs — all of
// them, since the matcher never sees real data. F1 is taken at the
// decision threshold that maximizes it, so it scores how well the output
// teaches the matcher to rank real pairs: at a fixed 0.5 threshold the F1
// of a matcher trained on a DP release swings between 0 and 0.9 from one
// input to the next.
func matchF1(real, syn *dataset.ER, seed int64) (float64, bool) {
	if len(syn.Matches) == 0 || len(real.Matches) == 0 {
		return 0, false
	}
	realCands, err := generator.DefaultBlocker(real.Schema()).Candidates(real.A, real.B)
	if err != nil {
		return 0, false
	}
	testX, testY := dataset.Vectors(dataset.LabeledPairsMixed(real, negPerPos, realCands, rand.New(rand.NewSource(seed+101))))
	synCands, err := generator.DefaultBlocker(syn.Schema()).Candidates(syn.A, syn.B)
	if err != nil {
		return 0, false
	}
	trainX, trainY := dataset.Vectors(dataset.LabeledPairsMixed(syn, negPerPos, synCands, rand.New(rand.NewSource(seed+107))))
	m := &matcher.RandomForest{Trees: 20, Seed: seed + 11}
	if err := matcher.FitContext(context.Background(), m, trainX, trainY); err != nil {
		return 0, false
	}
	_, met := matcher.BestThreshold(m, testX, testY)
	return met.F1(), true
}

// fidelityJSD fits O_syn to the output's labeled similarity vectors with
// the gmm S1 recipe, on a fixed-size uniform negative sample, and
// estimates its JSD against the run's O_real.
func fidelityJSD(syn *dataset.ER, oReal generator.Dist, seed int64) (float64, bool) {
	oSyn, err := generator.GMM{}.Fit(context.Background(), syn, generator.FitOptions{MaxNonMatching: synNegatives, Rand: rand.New(rand.NewSource(seed + 301))})
	if err != nil {
		return 0, false
	}
	v := gmm.JSD(oSyn, oReal, jsdSamples, rand.New(rand.NewSource(seed+303)))
	if v <= 0 {
		// The estimator clamps a sum that went negative, or to -Inf on a
		// degenerate O_syn component, to 0; that says nothing about
		// fidelity.
		return 0, false
	}
	return v, true
}

// matchDensityErr is |ln(d_syn / d_real)| for match density
// d = |M| / (|A|·|B|): how far the output's match volume strays from the
// real one, in either direction.
func matchDensityErr(real, syn *dataset.ER) (float64, bool) {
	density := func(e *dataset.ER) float64 {
		return float64(len(e.Matches)) / (float64(e.A.Len()) * float64(e.B.Len()))
	}
	dSyn, dReal := density(syn), density(real)
	if dSyn == 0 || dReal == 0 {
		return 0, false
	}
	return math.Abs(math.Log(dSyn / dReal)), true
}
