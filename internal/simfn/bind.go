package simfn

import "unicode/utf8"

// qgramMatcher is QGramJaccard{Q ≤ 3} bound to a fixed left value a. It
// holds a's packed gram set (the Prep result) in an open-addressing table
// and packs each b's grams inline (the AppendPackedQGrams rule), probing
// a's table once per gram: a gram found there is deduplicated by a
// generation stamp on its own slot, and only the grams outside a go
// through a reusable scratch table. A call allocates nothing and sorts
// nothing. Jaccard is an integer ratio of set sizes, so sim equals
// SimPrepped(Prep(a), Prep(b)) bit for bit. The stamps and the scratch
// table make a matcher single-goroutine.
type qgramMatcher struct {
	q     int
	fold  bool
	nA    int           // |A|, the number of distinct grams of a
	setA  []stampedGram // a's grams; a key of emptySlot marks a free slot
	bitsA uint

	out     []stampedGram // b's distinct grams outside a: the slots stamped with gen
	bitsOut uint
	gen     uint32 // the current call's stamp; never 0 during a call
}

// stampedGram is one slot of a matcher table: a packed gram and the
// generation of the last call that counted it.
type stampedGram struct {
	key uint64
	gen uint32
}

// emptySlot is no packed gram: full grams leave bit 63 clear, and short
// grams (bit 63 set) carry a unit count of 1 or 2 in bits 61–62, never 3.
const emptySlot = ^uint64(0)

// gramHash is Fibonacci hashing: the top bits of g·2⁶⁴/φ index a table
// of 2^bits slots.
func gramHash(g uint64, bits uint) uint64 { return (g * 0x9E3779B97F4A7C15) >> (64 - bits) }

// tableBits returns the log2 size of a table holding n keys at load ≤ ½.
func tableBits(n int) uint {
	bits := uint(3)
	for 1<<bits < 2*n {
		bits++
	}
	return bits
}

func newQGramMatcher(f QGramJaccard, a string) *qgramMatcher {
	pa := f.Prep(a).([]uint64)
	m := &qgramMatcher{q: f.q(), fold: f.Fold, nA: len(pa), bitsA: tableBits(len(pa))}
	m.setA = make([]stampedGram, 1<<m.bitsA)
	for i := range m.setA {
		m.setA[i].key = emptySlot
	}
	mask := uint64(len(m.setA) - 1)
	for _, g := range pa {
		i := gramHash(g, m.bitsA)
		for m.setA[i].key != emptySlot {
			i = (i + 1) & mask
		}
		m.setA[i].key = g
	}
	return m
}

// reset starts a new generation for a call of up to n grams, growing the
// scratch table to fit. A wrapped generation counter clears the stamps of
// both tables once, so no stamp of an earlier call reads as live.
func (m *qgramMatcher) reset(n int) {
	if bits := tableBits(n); bits > m.bitsOut {
		m.bitsOut = bits
		m.out = make([]stampedGram, 1<<bits)
	}
	m.gen++
	if m.gen == 0 {
		clear(m.out)
		for i := range m.setA {
			m.setA[i].gen = 0
		}
		m.gen = 1
	}
}

// addOutside records gram g of b, which is not in a, and reports whether
// this call had not seen it before.
func (m *qgramMatcher) addOutside(g uint64) bool {
	mask := uint64(len(m.out) - 1)
	for i := gramHash(g, m.bitsOut); ; i = (i + 1) & mask {
		s := &m.out[i]
		if s.gen != m.gen {
			s.key, s.gen = g, m.gen
			return true
		}
		if s.key == g {
			return false
		}
	}
}

// sim returns the Jaccard similarity of a's and b's q-gram sets, with
// jaccardSorted's empty-set rules. With inter grams of b in a and outside
// distinct grams of b not in a, the union is |A| + outside, the same
// integer as |A| + |B| − inter, so the quotient has the same bits.
func (m *qgramMatcher) sim(b string) float64 {
	if b == "" {
		if m.nA == 0 {
			return 1
		}
		return 0
	}
	if m.nA == 0 {
		return 0
	}
	// len(b) bytes bound b's gram count from above.
	m.reset(len(b))
	inter, outside := 0, 0
	gen, setA := m.gen, m.setA
	maskA := uint64(len(setA) - 1)
	// The packing loop of AppendPackedQGrams, without the gram buffer;
	// gram g is tallied once per call, in inter when a holds it (its own
	// slot's stamp dedupes it), else in outside.
	mask := uint64(1)<<(21*m.q) - 1
	var g uint64
	for i, k := 0, 0; i < len(b) || k < m.q; k++ { // k counts units read
		if i == len(b) {
			// b has k < q units: its one gram is the short key.
			g, k = shortPackedKey(b, k, m.fold), m.q
		} else {
			u, size := uint64(b[i]), 1
			if u >= utf8.RuneSelf {
				u, size = packUnit(b, i, m.fold)
			} else if m.fold && 'A' <= u && u <= 'Z' {
				u += 'a' - 'A'
			}
			g = (g<<21 | u) & mask
			i += size
			if k+1 < m.q {
				continue
			}
		}
		for j := gramHash(g, m.bitsA); ; j = (j + 1) & maskA {
			s := &setA[j]
			if s.key == g {
				if s.gen != gen {
					s.gen = gen
					inter++
				}
				break
			}
			if s.key == emptySlot {
				if m.addOutside(g) {
					outside++
				}
				break
			}
		}
	}
	return float64(inter) / float64(m.nA+outside)
}
