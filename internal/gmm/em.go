package gmm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"serd/internal/parallel"
	"serd/internal/stats"
	"serd/internal/telemetry"
	"serd/internal/trace"
)

// FitOptions controls EM fitting.
type FitOptions struct {
	// MaxIter bounds EM iterations. Default 100.
	MaxIter int
	// Tol is the absolute log-likelihood improvement below which EM stops.
	// Default 1e-6.
	Tol float64
	// Ridge is the covariance regularization. Default DefaultRidge.
	Ridge float64
	// Metrics receives EM telemetry: "gmm.em.fits" / "gmm.em.iterations"
	// counters, the per-fit iteration histogram, and the final
	// log-likelihood gauge. Nil disables recording.
	Metrics telemetry.Recorder
	// Rand seeds the k-means++-style initialization. Required.
	Rand *rand.Rand
	// Pool, when set, parallelizes the E-step across sample rows and the
	// M-step across components, and FitAIC's candidates across component
	// counts. The fit is bit-identical at any worker count: per-row
	// responsibilities and log-densities land in index-addressed slots,
	// the log-likelihood reduces in index order, each component's M-step
	// runs serially on one worker, and FitAIC draws every candidate's seed
	// before any EM runs. Nil runs serially.
	Pool *parallel.Pool
}

func (o FitOptions) withDefaults() FitOptions {
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
	if o.Ridge == 0 {
		o.Ridge = DefaultRidge
	}
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
	o.Metrics = telemetry.OrNop(o.Metrics)
	return o
}

// Fit learns a g-component mixture from xs with the EM algorithm
// (paper §IV-A, Eqs. 4-6). Cancellation is checked once per EM iteration:
// a done ctx returns ctx.Err() wrapped with the iteration count, and the
// partially-converged model is discarded (EM is cheap to replay relative
// to a checkpoint of its intermediate state).
func Fit(ctx context.Context, xs [][]float64, g int, opts FitOptions) (*Model, error) {
	opts = opts.withDefaults()
	model, err := seed(xs, g, opts)
	if err != nil {
		return nil, err
	}
	model, ll, err := em(ctx, xs, model, opts)
	if err != nil {
		return nil, err
	}
	opts.Metrics.Set("gmm.em.loglik", ll)
	return model, nil
}

// seed validates xs, clamps g to the sample count and draws the
// k-means++ starting model. It makes every random draw of a fit; EM
// itself draws none.
func seed(xs [][]float64, g int, opts FitOptions) (*Model, error) {
	if len(xs) == 0 {
		return nil, errors.New("gmm: no samples")
	}
	if g <= 0 {
		return nil, fmt.Errorf("gmm: invalid component count %d", g)
	}
	if g > len(xs) {
		g = len(xs)
	}
	dim := len(xs[0])
	for i, x := range xs {
		if len(x) != dim {
			return nil, fmt.Errorf("gmm: sample %d has dim %d, want %d", i, len(x), dim)
		}
	}
	return initModel(xs, g, opts)
}

// em runs EM iterations from model until the log-likelihood improvement
// drops below opts.Tol or opts.MaxIter is reached. It returns the fitted
// model and the log-likelihood of its last E-step. opts must be
// defaulted.
func em(ctx context.Context, xs [][]float64, model *Model, opts FitOptions) (*Model, float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := len(model.Comps)
	gamma := make([][]float64, len(xs)) // responsibilities, n×g
	for i := range gamma {
		gamma[i] = make([]float64, g)
	}
	lls := make([]float64, len(xs)) // per-row log-densities, reduced in order
	ll, prevLL := 0.0, math.Inf(-1)
	iters := 0
	tr := trace.FromRecorder(opts.Metrics) // nil when tracing is disarmed
	for iter := 0; iter < opts.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("gmm: em canceled after %d iterations: %w", iter, err)
		}
		iters = iter + 1
		var iterSpan *trace.Child
		if tr != nil {
			iterSpan = tr.Child("gmm.em.iter", trace.Int("iter", iter), trace.Int("g", g), trace.Int("n", len(xs)))
		}
		// E-step (Eq. 5), fanned out over rows; every worker writes only
		// its own rows' slots, and the log-likelihood sums in index order,
		// so the result is independent of the worker count.
		m := model
		opts.Pool.Run("gmm.em.estep", len(xs), func(i int) {
			lls[i] = m.RespLogPDF(xs[i], gamma[i])
		})
		ll = 0
		for _, v := range lls {
			ll += v
		}
		// M-step (Eq. 6), one component per pool index.
		next, err := maximize(xs, gamma, g, opts.Ridge, opts.Pool)
		if err != nil {
			return nil, 0, err
		}
		model = next
		if iterSpan != nil {
			iterSpan.End(trace.Float("loglik", ll))
		}
		// The per-iteration improvement traces the LL trajectory: a
		// histogram over improvements shows how fast fits converge. The
		// first iteration has no predecessor (prevLL = -Inf), so skip it.
		if !math.IsInf(prevLL, -1) {
			opts.Metrics.Observe("gmm.em.loglik_improvement", ll-prevLL)
		}
		if math.Abs(ll-prevLL) < opts.Tol {
			break
		}
		prevLL = ll
	}
	opts.Metrics.Add("gmm.em.fits", 1)
	opts.Metrics.Add("gmm.em.iterations", float64(iters))
	opts.Metrics.Observe("gmm.em.iterations_per_fit", float64(iters))
	return model, ll, nil
}

// FitAIC fits mixtures with 1..maxG components and returns the one that
// minimizes the Akaike information criterion (§IV-A); the first of equal
// scores wins.
//
// The candidates share nothing but xs, so their EM loops run as whole
// tasks on opts.Pool, claimed longest first (g = maxG down to 1): on two
// workers g=maxG runs beside g=maxG−1, and the short fits fill in behind.
// Every seed is drawn serially in g order before any EM starts, so
// opts.Rand ends where a serial g = 1..maxG loop of Fit calls leaves it,
// and selection runs in g order after the join, so the result is the
// same at any worker count. A canceled search returns the ctx error;
// candidates not yet started stop at their first iteration check.
func FitAIC(ctx context.Context, xs [][]float64, maxG int, opts FitOptions) (*Model, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if maxG < 1 {
		maxG = 1
	}
	type candidate struct {
		model   *Model
		ll, aic float64
		err     error
	}
	cands := make([]candidate, maxG) // cands[g-1]
	for i := range cands {
		// Defaulted per candidate, as each Fit call does: a nil Rand
		// seeds every candidate from a fresh source.
		cands[i].model, cands[i].err = seed(xs, i+1, opts.withDefaults())
	}
	o := opts.withDefaults()
	opts.Pool.Claim("gmm.em.fit", maxG, func(i int) {
		c := &cands[maxG-1-i]
		if c.err != nil {
			return
		}
		if c.model, c.ll, c.err = em(ctx, xs, c.model, o); c.err == nil {
			c.aic = c.model.AIC(xs)
		}
	})
	ctxErr := ctx.Err()
	var best *candidate
	bestScore := math.Inf(1)
	var firstErr error
	for i := range cands {
		c := &cands[i]
		if c.err != nil {
			// A canceled candidate stops the whole search rather than
			// being skipped as just another failed fit.
			if ctxErr != nil && errors.Is(c.err, ctxErr) {
				return nil, c.err
			}
			if firstErr == nil {
				firstErr = c.err
			}
			continue
		}
		if c.aic < bestScore {
			bestScore = c.aic
			best = c
		}
	}
	if best == nil {
		return nil, fmt.Errorf("gmm: no candidate model fit: %w", firstErr)
	}
	o.Metrics.Set("gmm.em.loglik", best.ll)
	return best.model, nil
}

// initModel seeds EM with k-means++-style centers and the global covariance.
func initModel(xs [][]float64, g int, opts FitOptions) (*Model, error) {
	dim := len(xs[0])
	centers := make([][]float64, 0, g)
	first := xs[opts.Rand.Intn(len(xs))]
	centers = append(centers, first)
	d2 := make([]float64, len(xs))
	for len(centers) < g {
		total := 0.0
		for i, x := range xs {
			best := math.Inf(1)
			for _, c := range centers {
				if d := sqDist(x, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		var pick []float64
		if total == 0 {
			pick = xs[opts.Rand.Intn(len(xs))]
		} else {
			u := opts.Rand.Float64() * total
			acc := 0.0
			pick = xs[len(xs)-1]
			for i, w := range d2 {
				acc += w
				if u <= acc {
					pick = xs[i]
					break
				}
			}
		}
		centers = append(centers, pick)
	}

	globalMean := stats.MeanVector(xs)
	globalCov := stats.CovarianceMatrix(xs, globalMean)
	stats.RegularizeCovariance(globalCov, opts.Ridge)

	comps := make([]Component, g)
	for i := 0; i < g; i++ {
		mean := make([]float64, dim)
		copy(mean, centers[i])
		comps[i] = Component{Weight: 1 / float64(g), Mean: mean, Cov: globalCov.Clone()}
	}
	return New(comps)
}

// maximize performs the M-step of Eq. 6 given responsibilities. The g
// components are independent and each is computed serially, so fanning
// them out over pool leaves every float unchanged.
func maximize(xs [][]float64, gamma [][]float64, g int, ridge float64, pool *parallel.Pool) (*Model, error) {
	comps := make([]Component, g)
	pool.Run("gmm.em.mstep", g, func(k int) {
		comps[k] = maximizeComponent(xs, gamma, k, ridge)
	})
	return New(comps)
}

// maximizeComponent re-estimates component k. Each row's centered vector
// d = x − mean is computed once, and w·d[a] once per row and a, so every
// covariance term is still (w·d[a])·d[b], summed over rows in order.
func maximizeComponent(xs [][]float64, gamma [][]float64, k int, ridge float64) Component {
	dim := len(xs[0])
	n := len(xs)
	nk := 0.0
	mean := make([]float64, dim)
	for i, x := range xs {
		w := gamma[i][k]
		nk += w
		for j, v := range x {
			mean[j] += w * v
		}
	}
	if nk < 1e-12 {
		// A component lost all its mass; re-seed it at a random-ish
		// sample to keep the mixture full rank.
		nk = 1e-12
		copy(mean, xs[k%n])
		for j := range mean {
			mean[j] *= nk
		}
	}
	for j := range mean {
		mean[j] /= nk
	}
	cov := stats.NewMat(dim, dim)
	var buf [16]float64 // d stays on the stack up to 16 columns
	d := buf[:]
	if dim > len(buf) {
		d = make([]float64, dim)
	}
	d = d[:dim]
	for i, x := range xs {
		w := gamma[i][k]
		if w == 0 {
			continue
		}
		for b := range d {
			d[b] = x[b] - mean[b]
		}
		for a, da := range d {
			wa := w * da
			row := cov.Data[a*dim : (a+1)*dim]
			for b, db := range d {
				row[b] += wa * db
			}
		}
	}
	for i := range cov.Data {
		cov.Data[i] /= nk
	}
	stats.RegularizeCovariance(cov, ridge)
	return Component{Weight: nk / float64(n), Mean: mean, Cov: cov}
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
