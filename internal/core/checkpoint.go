package core

import (
	"fmt"
	"sort"

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
// synthRun.distSnapshot, which knows which backend produced it.
// Map-derived fields (sampled labels, matched index sets) are sorted so
// the serialized payload — and therefore the checkpoint's SHA — is
// deterministic.
func captureS2(synA, synB *dataset.Relation, sampled map[dataset.Pair]bool,
	matched map[*dataset.Relation]map[int]bool, res *Result, rejections int, dist *distState, draws uint64) *checkpoint.S2State {
	st := &checkpoint.S2State{
		A:                       captureEntities(synA),
		B:                       captureEntities(synB),
		MatchedA:                sortedKeys(matched[synA]),
		MatchedB:                sortedKeys(matched[synB]),
		SampledMatches:          res.SampledMatches,
		RejectedByDiscriminator: res.RejectedByDiscriminator,
		RejectedByDistribution:  res.RejectedByDistribution,
		Rejections:              rejections,
		Dist:                    dist.snap(),
		Draws:                   draws,
	}
	for p, m := range sampled {
		st.Sampled = append(st.Sampled, checkpoint.PairLabelState{A: p.A, B: p.B, Matching: m})
	}
	sort.Slice(st.Sampled, func(i, j int) bool {
		if st.Sampled[i].A != st.Sampled[j].A {
			return st.Sampled[i].A < st.Sampled[j].A
		}
		return st.Sampled[i].B < st.Sampled[j].B
	})
	for _, p := range res.SampledMatchPairs {
		st.SampledMatchPairs = append(st.SampledMatchPairs, checkpoint.PairState{A: p.A, B: p.B})
	}
	return st
}

// restoreS2 rebuilds the live S2 state from a checkpoint, filling the
// caller's (empty) relations, maps and result. It returns the restored
// count of rejected attempts.
func restoreS2(st *checkpoint.S2State, synA, synB *dataset.Relation, sampled map[dataset.Pair]bool,
	matched map[*dataset.Relation]map[int]bool, res *Result, dist *distState) (int, error) {
	if err := restoreEntities(synA, st.A); err != nil {
		return 0, err
	}
	if err := restoreEntities(synB, st.B); err != nil {
		return 0, err
	}
	for _, pl := range st.Sampled {
		sampled[dataset.Pair{A: pl.A, B: pl.B}] = pl.Matching
	}
	for _, i := range st.MatchedA {
		matched[synA][i] = true
	}
	for _, i := range st.MatchedB {
		matched[synB][i] = true
	}
	res.SampledMatches = st.SampledMatches
	for _, p := range st.SampledMatchPairs {
		res.SampledMatchPairs = append(res.SampledMatchPairs, dataset.Pair{A: p.A, B: p.B})
	}
	res.RejectedByDiscriminator = st.RejectedByDiscriminator
	res.RejectedByDistribution = st.RejectedByDistribution
	if err := dist.restore(st.Dist); err != nil {
		return 0, err
	}
	return st.Rejections, nil
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

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
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
