package gmm

import (
	"errors"
	"fmt"
	"math"

	"serd/internal/stats"
)

// This file provides exact-state serialization for checkpoint/resume
// (internal/checkpoint). Unlike persist.go's SaveJoint/LoadJoint — which
// round-trip through New and therefore renormalize component weights — the
// *FromState constructors restore every float bit-for-bit: a model rebuilt
// from its State must produce the same densities, samples and incremental
// updates as the original, or a resumed run diverges from the uninterrupted
// one.

// CompState is one mixture component's serialized parameters.
type CompState struct {
	Weight float64
	Mean   []float64
	Cov    [][]float64
}

// ModelState is a mixture's serialized parameters.
type ModelState struct {
	Comps []CompState
}

// JointState is a serialized O-distribution.
type JointState struct {
	Pi   float64
	M, N *ModelState
}

// AccumulatorState is an incremental-update accumulator's serialized state:
// the current model plus the per-component sufficient statistics.
type AccumulatorState struct {
	Model *ModelState
	Ridge float64
	N     int
	S0    []float64
	S1    [][]float64
	S2    [][][]float64
}

// State snapshots the model (deep copy).
func (m *Model) State() *ModelState {
	st := &ModelState{Comps: make([]CompState, len(m.Comps))}
	for i, c := range m.Comps {
		st.Comps[i] = CompState{
			Weight: c.Weight,
			Mean:   append([]float64(nil), c.Mean...),
			Cov:    matRows(c.Cov),
		}
	}
	return st
}

// ModelFromState restores a model exactly. The stored weights were already
// normalized when the model was built, so — unlike New — no renormalization
// happens here: dividing by a sum that is one-ULP off 1.0 would change the
// weight bits and break resume equivalence. The MVN construction mirrors
// New's (factorize as given, regularize with DefaultRidge on failure) so the
// per-component distributions come out bit-identical too.
func ModelFromState(st *ModelState) (*Model, error) {
	if st == nil || len(st.Comps) == 0 {
		return nil, errors.New("gmm: empty model state")
	}
	dim := len(st.Comps[0].Mean)
	m := &Model{Comps: make([]Component, len(st.Comps)), dim: dim}
	for i, cs := range st.Comps {
		if len(cs.Mean) != dim {
			return nil, fmt.Errorf("gmm: state component %d has dim %d, want %d", i, len(cs.Mean), dim)
		}
		mean := append([]float64(nil), cs.Mean...)
		cov := stats.MatFromRows(cs.Cov)
		if cov.Rows != dim || cov.Cols != dim {
			return nil, fmt.Errorf("gmm: state component %d covariance is %dx%d, want %dx%d", i, cov.Rows, cov.Cols, dim, dim)
		}
		dist, err := stats.NewMVN(mean, cov.Clone())
		if err != nil {
			stats.RegularizeCovariance(cov, DefaultRidge)
			dist, err = stats.NewMVN(mean, cov)
			if err != nil {
				return nil, fmt.Errorf("gmm: state component %d covariance: %w", i, err)
			}
		}
		m.Comps[i] = Component{Weight: cs.Weight, Mean: mean, Cov: cov, dist: dist, logW: math.Log(cs.Weight)}
	}
	return m, nil
}

// State snapshots the joint.
func (j *Joint) State() *JointState {
	return &JointState{Pi: j.Pi, M: j.M.State(), N: j.N.State()}
}

// JointFromState restores a joint exactly.
func JointFromState(st *JointState) (*Joint, error) {
	if st == nil {
		return nil, errors.New("gmm: nil joint state")
	}
	m, err := ModelFromState(st.M)
	if err != nil {
		return nil, fmt.Errorf("gmm: M-distribution: %w", err)
	}
	n, err := ModelFromState(st.N)
	if err != nil {
		return nil, fmt.Errorf("gmm: N-distribution: %w", err)
	}
	return NewJoint(m, n, st.Pi)
}

// State snapshots the accumulator: model parameters and sufficient
// statistics, everything fold/rebuild touches.
func (a *Accumulator) State() *AccumulatorState {
	st := &AccumulatorState{
		Model: a.model.State(),
		Ridge: a.ridge,
		N:     a.n,
		S0:    append([]float64(nil), a.s0...),
		S1:    make([][]float64, len(a.s1)),
		S2:    make([][][]float64, len(a.s2)),
	}
	for k := range a.s1 {
		st.S1[k] = append([]float64(nil), a.s1[k]...)
		st.S2[k] = matRows(a.s2[k])
	}
	return st
}

// AccumulatorFromState restores an accumulator exactly (the model is NOT
// re-cloned through New, so its weights keep their checkpointed bits).
func AccumulatorFromState(st *AccumulatorState) (*Accumulator, error) {
	if st == nil {
		return nil, errors.New("gmm: nil accumulator state")
	}
	m, err := ModelFromState(st.Model)
	if err != nil {
		return nil, err
	}
	g := len(m.Comps)
	if len(st.S0) != g || len(st.S1) != g || len(st.S2) != g {
		return nil, fmt.Errorf("gmm: accumulator state has %d/%d/%d statistics for %d components", len(st.S0), len(st.S1), len(st.S2), g)
	}
	acc := &Accumulator{
		model: m,
		ridge: st.Ridge,
		n:     st.N,
		s0:    append([]float64(nil), st.S0...),
		s1:    make([][]float64, g),
		s2:    make([]*stats.Mat, g),
	}
	dim := m.Dim()
	for k := 0; k < g; k++ {
		if len(st.S1[k]) != dim {
			return nil, fmt.Errorf("gmm: accumulator state S1[%d] has dim %d, want %d", k, len(st.S1[k]), dim)
		}
		acc.s1[k] = append([]float64(nil), st.S1[k]...)
		s2 := stats.MatFromRows(st.S2[k])
		if s2.Rows != dim || s2.Cols != dim {
			return nil, fmt.Errorf("gmm: accumulator state S2[%d] is %dx%d, want %dx%d", k, s2.Rows, s2.Cols, dim, dim)
		}
		acc.s2[k] = s2
	}
	return acc, nil
}

// matRows copies a matrix into row slices.
func matRows(m *stats.Mat) [][]float64 {
	rows := make([][]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		rows[r] = append([]float64(nil), m.Row(r)...)
	}
	return rows
}
