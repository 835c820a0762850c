package dataset

import (
	"slices"

	"serd/internal/parallel"
	"serd/internal/simfn"
)

// Preps holds a sequence of entities together with the prepped form
// (simfn.Preprocessor.Prep) of their values: one []any per preprocessable
// column, indexed by entity position. Pair vectors read both sides' preps
// by position, so every value is prepped once per relation and compared
// without hashing or locking — the q-gram/token sets of the entities S1,
// the S2 rejection scan and S3's labeling compare thousands of times.
// Preps change only through NewPreps and Append; vectors may be computed
// concurrently between those writes.
type Preps struct {
	schema *Schema
	pps    []simfn.Preprocessor // per column; nil where Sim is not a Preprocessor
	ents   []*Entity
	cols   [][]any // cols[c][i] = pps[c].Prep(ents[i].Values[c]); nil where pps[c] is nil
}

// NewPreps preps ents under schema's similarity functions, fanned out on
// pool under phase (a nil pool preps serially).
func NewPreps(schema *Schema, ents []*Entity, pool *parallel.Pool, phase string) *Preps {
	p := &Preps{
		schema: schema,
		pps:    make([]simfn.Preprocessor, len(schema.Cols)),
		// Clipped, so an Append never writes into the caller's slice.
		ents: slices.Clip(ents),
		cols: make([][]any, len(schema.Cols)),
	}
	for c, col := range schema.Cols {
		if pp, ok := col.Sim.(simfn.Preprocessor); ok {
			p.pps[c] = pp
			p.cols[c] = make([]any, len(ents))
		}
	}
	pool.Run(phase, len(ents), func(i int) {
		for c, pp := range p.pps {
			if pp != nil {
				p.cols[c][i] = pp.Prep(ents[i].Values[c])
			}
		}
	})
	return p
}

// Len returns the number of prepped entities.
func (p *Preps) Len() int { return len(p.ents) }

// Append adds q's entities and preps after p's, without prepping again.
// q must be prepped under p's schema.
func (p *Preps) Append(q *Preps) {
	p.ents = append(p.ents, q.ents...)
	for c, pp := range p.pps {
		if pp != nil {
			p.cols[c] = append(p.cols[c], q.cols[c]...)
		}
	}
}

// SimVector computes the similarity vector of (p's entity i, q's entity
// j), equal bit for bit to Schema.SimVector on the two entities
// (Preprocessor's contract). p and q must be prepped under one schema;
// p's similarity functions score the pair.
func (p *Preps) SimVector(i int, q *Preps, j int) []float64 {
	return p.SimVectorInto(make([]float64, len(p.pps)), i, q, j)
}

// SimVectorInto writes SimVector(i, q, j) into x (one slot per column)
// and returns it.
func (p *Preps) SimVectorInto(x []float64, i int, q *Preps, j int) []float64 {
	a, b := p.ents[i], q.ents[j]
	for c, pp := range p.pps {
		if pp != nil {
			x[c] = pp.SimPrepped(p.cols[c][i], q.cols[c][j])
		} else {
			x[c] = p.schema.Cols[c].Sim.Sim(a.Values[c], b.Values[c])
		}
	}
	return x
}

// Prep preps both relations under the dataset's schema, on pool under
// the "generator.vectors" phase: S1's learning vectors are the pooled
// caller.
func (e *ER) Prep(pool *parallel.Pool) (a, b *Preps) {
	return NewPreps(e.Schema(), e.A.Entities, pool, "generator.vectors"), NewPreps(e.Schema(), e.B.Entities, pool, "generator.vectors")
}

// PairVectors computes the similarity vectors of pairs, in pair order,
// where Pair.A indexes a and Pair.B indexes b. With a pool the pairs are
// scored in parallel under the "generator.vectors" phase into
// index-addressed slots, so the result is bit-identical at any worker
// count. The vectors share one backing array, each capped at its own
// length.
func PairVectors(pairs []Pair, a, b *Preps, pool *parallel.Pool) [][]float64 {
	dim := len(a.pps)
	flat := make([]float64, len(pairs)*dim)
	out := make([][]float64, len(pairs))
	pool.Run("generator.vectors", len(pairs), func(i int) {
		p := pairs[i]
		out[i] = a.SimVectorInto(flat[i*dim:(i+1)*dim:(i+1)*dim], p.A, b, p.B)
	})
	return out
}
