package dataset

import (
	"sync"

	"serd/internal/simfn"
)

// simCacheMaxEntries bounds each column's prep cache. S2 preps every
// candidate value it scores, accepted or not, so an unbounded map would
// grow with the attempt count; past the cap, unseen values are prepped
// without being stored.
const simCacheMaxEntries = 1 << 18

// SimCache computes similarity vectors like Schema.SimVector but caches
// each value's preprocessed representation (q-gram/token sets) per column,
// so repeated comparisons against the same entities — the S2 rejection
// scan and S3's all-pairs labeling — stop re-deriving sets. Results are
// bit-identical to Schema.SimVector (Preprocessor's contract). Safe for
// concurrent use.
type SimCache struct {
	schema *Schema
	cols   []*colCache // nil for columns whose Sim is not a Preprocessor
}

type colCache struct {
	pp simfn.Preprocessor
	mu sync.RWMutex
	m  map[string]any
}

// NewSimCache returns a cache over the schema's preprocessable columns.
func NewSimCache(schema *Schema) *SimCache {
	c := &SimCache{schema: schema, cols: make([]*colCache, len(schema.Cols))}
	for i, col := range schema.Cols {
		if pp, ok := col.Sim.(simfn.Preprocessor); ok {
			c.cols[i] = &colCache{pp: pp, m: make(map[string]any)}
		}
	}
	return c
}

// SimVector computes the similarity vector x_(a,b), equal bit for bit to
// Schema.SimVector(a, b).
func (c *SimCache) SimVector(a, b *Entity) []float64 {
	return c.simVectorInto(make([]float64, len(c.schema.Cols)), a, b)
}

// simVectorInto writes SimVector(a, b) into x (one slot per column) and
// returns it.
func (c *SimCache) simVectorInto(x []float64, a, b *Entity) []float64 {
	for i, col := range c.schema.Cols {
		cc := c.cols[i]
		if cc == nil {
			x[i] = col.Sim.Sim(a.Values[i], b.Values[i])
			continue
		}
		x[i] = cc.pp.SimPrepped(cc.get(a.Values[i]), cc.get(b.Values[i]))
	}
	return x
}

func (cc *colCache) get(v string) any {
	cc.mu.RLock()
	p, ok := cc.m[v]
	cc.mu.RUnlock()
	if ok {
		return p
	}
	p = cc.pp.Prep(v)
	cc.mu.Lock()
	// Re-check under the write lock: a concurrent prep of the same value
	// may have landed first, and both preps are equal by construction.
	if q, ok := cc.m[v]; ok {
		p = q
	} else if len(cc.m) < simCacheMaxEntries {
		cc.m[v] = p
	}
	cc.mu.Unlock()
	return p
}
