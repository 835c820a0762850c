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
	return p.vectorInto(x, i, q, j, -1)
}

// vectorInto is SimVectorInto, except that column bounded's slot holds
// the bounder's bound on its similarity rather than the similarity; -1
// bounds no column.
func (p *Preps) vectorInto(x []float64, i int, q *Preps, j int, bounded int) []float64 {
	a, b := p.ents[i], q.ents[j]
	for c, pp := range p.pps {
		switch {
		case c == bounded:
			x[c] = pp.(bounder).SimBound(p.cols[c][i], q.cols[c][j])
		case pp != nil:
			x[c] = pp.SimPrepped(p.cols[c][i], q.cols[c][j])
		default:
			x[c] = p.schema.Cols[c].Sim.Sim(a.Values[c], b.Values[c])
		}
	}
	return x
}

// bounder is a Preprocessor whose similarity has an upper bound cheaper
// than SimPrepped (simfn.QGramJaccard): SimPrepped(a, b) ≤ SimBound(a, b)
// for all prepped a and b, and neither is NaN. PrepSize is a prepped
// value's size, the measure of what SimPrepped costs on it.
type bounder interface {
	SimBound(a, b any) float64
	PrepSize(p any) int
}

// boundColumn returns the bounder column whose preps in p and q are the
// largest in total, the lowest index on ties, or -1 if no column is a
// bounder.
func (p *Preps) boundColumn(q *Preps) int {
	best, bestSize := -1, -1
	for c, pp := range p.pps {
		bd, ok := pp.(bounder)
		if !ok {
			continue
		}
		size := 0
		for _, side := range [...][]any{p.cols[c], q.cols[c]} {
			for _, v := range side {
				size += bd.PrepSize(v)
			}
		}
		if size > bestSize {
			best, bestSize = c, size
		}
	}
	return best
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
	flat := a.vectors(pairs, b, pool, -1)
	out := make([][]float64, len(pairs))
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out
}

// vectors scores pairs into one array, dim floats per pair in pair order,
// on pool under the "generator.vectors" phase; column bounded holds its
// bound (see vectorInto).
func (p *Preps) vectors(pairs []Pair, q *Preps, pool *parallel.Pool, bounded int) []float64 {
	dim := len(p.pps)
	flat := make([]float64, len(pairs)*dim)
	pool.Run("generator.vectors", len(pairs), func(i int) {
		pr := pairs[i]
		p.vectorInto(flat[i*dim:(i+1)*dim:(i+1)*dim], pr.A, q, pr.B, bounded)
	})
	return flat
}
