package core

import (
	"fmt"

	"serd/internal/checkpoint"
	"serd/internal/dataset"
	"serd/internal/gmm"
)

// This file bridges the live S2 state and its checkpoint.S2State snapshot.
// Capture reads but never mutates (and never touches the RNG stream);
// restore rebuilds the exact position via the gmm exact-state constructors,
// so a resumed run continues bit-for-bit.

// captureS2 snapshots the mid-S2 pipeline position, except the
// O-distribution payload — the caller fills Backend/Gen from
// synthRun.distSnapshot, which knows which backend produced it. The
// sampled labels are not captured: the resume replays them from the plans.
func captureS2(synA, synB *dataset.Relation, res *Result, dist *distState, draws uint64) *checkpoint.S2State {
	return &checkpoint.S2State{
		A:                       captureEntities(synA),
		B:                       captureEntities(synB),
		RejectedByDiscriminator: res.RejectedByDiscriminator,
		RejectedByDistribution:  res.RejectedByDistribution,
		Dist:                    dist.snap(),
		Draws:                   draws,
	}
}

// restoreS2 rebuilds the live S2 state from a checkpoint, filling the
// caller's (empty) relations and result.
func restoreS2(st *checkpoint.S2State, synA, synB *dataset.Relation, res *Result, dist *distState) error {
	if err := restoreEntities(synA, st.A); err != nil {
		return err
	}
	if err := restoreEntities(synB, st.B); err != nil {
		return err
	}
	res.RejectedByDiscriminator = st.RejectedByDiscriminator
	res.RejectedByDistribution = st.RejectedByDistribution
	return dist.restore(st.Dist)
}

func captureEntities(rel *dataset.Relation) []checkpoint.EntityState {
	out := make([]checkpoint.EntityState, rel.Len())
	for i, e := range rel.Entities {
		out[i] = checkpoint.EntityState{ID: e.ID, Values: append([]string(nil), e.Values...)}
	}
	return out
}

func restoreEntities(rel *dataset.Relation, states []checkpoint.EntityState) error {
	for _, es := range states {
		e := &dataset.Entity{ID: es.ID, Values: append([]string(nil), es.Values...)}
		if err := rel.Append(e); err != nil {
			return fmt.Errorf("%s: %w", rel.Name, err)
		}
	}
	return nil
}

// snap captures the rejection state: the pending vector pools before O_syn
// activates, or the live accumulators after.
func (d *distState) snap() *checkpoint.DistSnap {
	s := &checkpoint.DistSnap{
		PendingPos:   d.pendingPos,
		PendingNeg:   d.pendingNeg,
		NPos:         d.nPos,
		NNeg:         d.nNeg,
		LastFitTotal: d.lastFitTotal,
	}
	if d.accM != nil {
		s.AccM = d.accM.State()
	}
	if d.accN != nil {
		s.AccN = d.accN.State()
	}
	return s
}

// restore rebuilds the rejection state bit-exactly (accumulators via
// gmm.AccumulatorFromState, which does not renormalize).
func (d *distState) restore(s *checkpoint.DistSnap) error {
	if s == nil {
		return fmt.Errorf("checkpoint missing rejection state")
	}
	d.pendingPos = s.PendingPos
	d.pendingNeg = s.PendingNeg
	d.nPos = s.NPos
	d.nNeg = s.NNeg
	d.lastFitTotal = s.LastFitTotal
	if s.AccM != nil {
		acc, err := gmm.AccumulatorFromState(s.AccM)
		if err != nil {
			return err
		}
		d.accM = acc
	}
	if s.AccN != nil {
		acc, err := gmm.AccumulatorFromState(s.AccN)
		if err != nil {
			return err
		}
		d.accN = acc
	}
	return nil
}
