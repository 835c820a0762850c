package gmm

import (
	"errors"
	"fmt"

	"serd/internal/stats"
)

// Accumulator maintains the per-component sufficient statistics of a fitted
// mixture so that new similarity vectors can be folded in incrementally
// (paper §V, Eqs. 8-9) without re-running EM over all previous vectors.
//
// For each component k it tracks
//
//	S0_k = Σ_i γ_ik           (responsibility mass)
//	S1_k = Σ_i γ_ik x_i       (weighted sum)
//	S2_k = Σ_i γ_ik x_i x_iᵀ  (weighted scatter)
//
// from which the updated μ̂, Σ̂, π̂ of Eq. 9 follow in closed form:
// Σ γ (x−μ̂)(x−μ̂)ᵀ = S2 − μ̂ S1ᵀ − S1 μ̂ᵀ + S0 μ̂ μ̂ᵀ.
type Accumulator struct {
	model *Model
	ridge float64
	n     int
	s0    []float64
	s1    [][]float64
	s2    []*stats.Mat
}

// NewAccumulator builds an accumulator from a fitted model and the vectors
// it was fitted on. ridge is the covariance regularization applied when
// rebuilding the model; pass 0 for DefaultRidge.
func NewAccumulator(m *Model, xs [][]float64, ridge float64) (*Accumulator, error) {
	if m == nil {
		return nil, errors.New("gmm: nil model")
	}
	if ridge == 0 {
		ridge = DefaultRidge
	}
	g := len(m.Comps)
	dim := m.Dim()
	acc := &Accumulator{
		model: m.Clone(),
		ridge: ridge,
		s0:    make([]float64, g),
		s1:    make([][]float64, g),
		s2:    make([]*stats.Mat, g),
	}
	for k := 0; k < g; k++ {
		acc.s1[k] = make([]float64, dim)
		acc.s2[k] = stats.NewMat(dim, dim)
	}
	if err := acc.fold(xs); err != nil {
		return nil, err
	}
	return acc, nil
}

// Model returns the mixture reflecting everything folded in so far.
func (a *Accumulator) Model() *Model { return a.model }

// N returns the number of vectors folded in so far.
func (a *Accumulator) N() int { return a.n }

// Add folds the new vectors into the sufficient statistics (computing γ̂ per
// Eq. 8 under the current parameters) and rebuilds the model parameters per
// Eq. 9. It reports an error if a covariance cannot be factorized even after
// regularization.
func (a *Accumulator) Add(xs [][]float64) error {
	if len(xs) == 0 {
		return nil
	}
	return a.fold(xs)
}

// Snapshot returns a copy of the accumulator so callers can trial an
// update (e.g. the rejection check of Eq. 10) and discard it. The
// sufficient statistics are copied; the model is shared, since a built
// Model is never mutated and Add replaces it rather than changing it.
func (a *Accumulator) Snapshot() *Accumulator {
	cp := &Accumulator{
		model: a.model,
		ridge: a.ridge,
		n:     a.n,
		s0:    append([]float64(nil), a.s0...),
		s1:    make([][]float64, len(a.s1)),
		s2:    make([]*stats.Mat, len(a.s2)),
	}
	for k := range a.s1 {
		cp.s1[k] = append([]float64(nil), a.s1[k]...)
		cp.s2[k] = a.s2[k].Clone()
	}
	return cp
}

func (a *Accumulator) fold(xs [][]float64) error {
	dim := a.model.Dim()
	for i, x := range xs {
		if len(x) != dim {
			return fmt.Errorf("gmm: vector %d has dim %d, want %d", i, len(x), dim)
		}
		gamma := a.model.Responsibilities(x) // γ̂ under current params (Eq. 8)
		for k, w := range gamma {
			a.s0[k] += w
			for j, v := range x {
				a.s1[k][j] += w * v
			}
			for p := 0; p < dim; p++ {
				wp := w * x[p]
				for q := 0; q < dim; q++ {
					a.s2[k].Add(p, q, wp*x[q])
				}
			}
		}
	}
	a.n += len(xs)
	return a.rebuild()
}

// rebuild recomputes μ̂, Σ̂, π̂ from the sufficient statistics (Eq. 9).
func (a *Accumulator) rebuild() error {
	g := len(a.model.Comps)
	dim := a.model.Dim()
	comps := make([]Component, g)
	for k := 0; k < g; k++ {
		nk := a.s0[k]
		mean := make([]float64, dim)
		if nk < 1e-12 {
			copy(mean, a.model.Comps[k].Mean)
			nk = 1e-12
		} else {
			for j := range mean {
				mean[j] = a.s1[k][j] / nk
			}
		}
		cov := stats.NewMat(dim, dim)
		for p := 0; p < dim; p++ {
			for q := 0; q < dim; q++ {
				v := a.s2[k].At(p, q) - mean[p]*a.s1[k][q] - a.s1[k][p]*mean[q] + nk*mean[p]*mean[q]
				cov.Set(p, q, v/nk)
			}
		}
		stats.RegularizeCovariance(cov, a.ridge)
		comps[k] = Component{Weight: nk / float64(a.n), Mean: mean, Cov: cov}
	}
	m, err := New(comps)
	if err != nil {
		return fmt.Errorf("gmm: incremental rebuild: %w", err)
	}
	a.model = m
	return nil
}
