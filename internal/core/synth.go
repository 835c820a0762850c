package core

import (
	"fmt"
	"math"
	"math/rand"

	"serd/internal/dataset"
	"serd/internal/simfn"
	"serd/internal/textsynth"
)

// valueSynth synthesizes one column value e'[C_i] from e[C_i] and the
// target similarity x[i] (paper §IV-B1). It is read-only after
// construction, so S2's pool workers share one: every call draws only
// from its own r and keeps its scratch per call.
type valueSynth struct {
	schema *dataset.Schema
	// catValuesA/catValuesB hold the observed value set per categorical
	// column, per relation side — categorical synthesis never invents
	// values beyond existing ones, and it must respect each side's own
	// value distribution: in DBLP-ACM the A-side spells venues short and
	// the B-side long, so an A-entity carrying a B-side spelling would
	// create cross-pair similarities (venue = 1) that exist nowhere in the
	// real pair space, derailing S3's posterior labeling.
	catValuesA [][]string
	catValuesB [][]string
	// catPP / catPrepA / catPrepB cache the preprocessed form of every
	// categorical pool value when the column's similarity function supports
	// prepping, so closestCategorical pays set extraction once per pool at
	// construction instead of once per candidate per call.
	catPP    []simfn.Preprocessor
	catPrepA [][]any
	catPrepB [][]any
	// text maps textual column index to its string synthesizer.
	text map[int]textsynth.Synthesizer
}

func newValueSynth(real *dataset.ER, synths map[string]textsynth.Synthesizer) (*valueSynth, error) {
	schema := real.Schema()
	vs := &valueSynth{
		schema:     schema,
		catValuesA: make([][]string, schema.Len()),
		catValuesB: make([][]string, schema.Len()),
		catPP:      make([]simfn.Preprocessor, schema.Len()),
		catPrepA:   make([][]any, schema.Len()),
		catPrepB:   make([][]any, schema.Len()),
		text:       make(map[int]textsynth.Synthesizer),
	}
	for ci, col := range schema.Cols {
		switch col.Kind {
		case dataset.Categorical:
			vs.catValuesA[ci] = real.A.ColumnValues(ci)
			vs.catValuesB[ci] = real.B.ColumnValues(ci)
			if len(vs.catValuesA[ci]) == 0 || len(vs.catValuesB[ci]) == 0 {
				return nil, fmt.Errorf("core: categorical column %q has no values", col.Name)
			}
			if pp, ok := col.Sim.(simfn.Preprocessor); ok {
				vs.catPP[ci] = pp
				vs.catPrepA[ci] = prepAll(pp, vs.catValuesA[ci])
				vs.catPrepB[ci] = prepAll(pp, vs.catValuesB[ci])
			}
		case dataset.Numeric, dataset.Date:
			if _, ok := col.Sim.(simfn.Inverter); !ok {
				return nil, fmt.Errorf("core: column %q is %v but its similarity function %q cannot invert", col.Name, col.Kind, col.Sim.Name())
			}
		case dataset.Textual:
			s, ok := synths[col.Name]
			if !ok || s == nil {
				return nil, fmt.Errorf("core: no string synthesizer configured for textual column %q", col.Name)
			}
			vs.text[ci] = s
		}
	}
	return vs, nil
}

// synthesizeEntity builds e' from e and the sampled similarity vector x
// such that the similarity vector of (e, e') approximates x (step S2-3).
// dstIsA selects which side's categorical value pool e' draws from.
func (vs *valueSynth) synthesizeEntity(id string, e *dataset.Entity, x []float64, dstIsA bool, r *rand.Rand) *dataset.Entity {
	values := make([]string, vs.schema.Len())
	for ci, col := range vs.schema.Cols {
		target := x[ci]
		switch col.Kind {
		case dataset.Numeric, dataset.Date:
			v, _ := col.Sim.(simfn.Inverter).Invert(e.Values[ci], target, r.Float64)
			values[ci] = v
		case dataset.Categorical:
			values[ci] = vs.closestCategorical(ci, e.Values[ci], target, dstIsA, r)
		case dataset.Textual:
			v, _ := vs.text[ci].Synthesize(e.Values[ci], target, r)
			values[ci] = v
		}
	}
	return &dataset.Entity{ID: id, Values: values}
}

// closestCategorical iterates the observed values of the column and picks
// one whose similarity to v is closest to the target (§IV-B1, categorical
// case). Near-ties (within tieBand of the best distance) are broken
// uniformly at random: a deterministic pick would funnel every synthesis
// from the same source value onto one winner, concentrating the
// categorical marginal far beyond the real data's and flooding S3 with
// spurious categorical-collision matches.
func (vs *valueSynth) closestCategorical(ci int, v string, target float64, dstIsA bool, r *rand.Rand) string {
	const tieBand = 0.05
	col := vs.schema.Cols[ci]
	pool, prepped := vs.catValuesB[ci], vs.catPrepB[ci]
	if dstIsA {
		pool, prepped = vs.catValuesA[ci], vs.catPrepA[ci]
	}
	// Each pool similarity is needed by both the best-distance pass and the
	// tie pass; compute it once per candidate into per-call scratch, on the
	// stack for the usual small value sets.
	var buf [64]float64
	sims := buf[:0]
	if len(pool) > len(buf) {
		sims = make([]float64, 0, len(pool))
	}
	sims = sims[:len(pool)]
	if pp := vs.catPP[ci]; pp != nil {
		pv := pp.Prep(v)
		for i := range pool {
			sims[i] = pp.SimPrepped(pv, prepped[i])
		}
	} else {
		for i, cand := range pool {
			sims[i] = col.Sim.Sim(v, cand)
		}
	}
	bestDiff := math.Inf(1)
	for _, s := range sims {
		if d := math.Abs(s - target); d < bestDiff {
			bestDiff = d
		}
	}
	var ties []string
	for i, s := range sims {
		if math.Abs(s-target) <= bestDiff+tieBand {
			ties = append(ties, pool[i])
		}
	}
	if len(ties) == 0 {
		return v
	}
	return ties[r.Intn(len(ties))]
}

// prepAll preps every pool value once at construction.
func prepAll(pp simfn.Preprocessor, vals []string) []any {
	out := make([]any, len(vals))
	for i, v := range vals {
		out[i] = pp.Prep(v)
	}
	return out
}

// coldStart synthesizes the bootstrap entity of S2 (§IV-B2) without a GAN:
// numeric/date and categorical values are drawn from the column's range or
// value set, and each textual value is synthesized from a random
// low-similarity target against a random categorical/background anchor —
// in practice, asking the column's string synthesizer for an in-domain
// string unrelated to anything (target 0 from an arbitrary seed string).
func (vs *valueSynth) coldStart(id string, real *dataset.ER, r *rand.Rand) *dataset.Entity {
	values := make([]string, vs.schema.Len())
	anchor := real.A.Entities[r.Intn(real.A.Len())]
	for ci, col := range vs.schema.Cols {
		switch col.Kind {
		case dataset.Numeric, dataset.Date:
			v, _ := col.Sim.(simfn.Inverter).Invert(anchor.Values[ci], r.Float64(), r.Float64)
			values[ci] = v
		case dataset.Categorical:
			// The bootstrap entity joins A_syn, so it draws A-side values.
			values[ci] = vs.catValuesA[ci][r.Intn(len(vs.catValuesA[ci]))]
		case dataset.Textual:
			v, _ := vs.text[ci].Synthesize(anchor.Values[ci], 0.05, r)
			values[ci] = v
		}
	}
	return &dataset.Entity{ID: id, Values: values}
}
