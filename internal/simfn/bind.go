package simfn

// qgramMatcher is QGramJaccard{Q ≤ 3} bound to a fixed left value a. It
// holds a's packed gram set (the Prep result) in an open-addressing table
// and streams each b's packed grams (AppendPackedQGrams) through a
// reusable scratch table, so a call allocates nothing and sorts nothing.
// Jaccard is an integer ratio of set sizes, so sim equals
// SimPrepped(Prep(a), Prep(b)) bit for bit. The scratch buffers make a
// matcher single-goroutine.
type qgramMatcher struct {
	q     int
	fold  bool
	nA    int      // |A|, the number of distinct grams of a
	setA  []uint64 // a's grams; emptySlot marks a free slot
	bitsA uint

	grams []uint64   // b's grams, in position order
	seen  []seenSlot // b's distinct grams: the slots stamped with gen
	bitsB uint
	gen   uint32
}

type seenSlot struct {
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
	m.setA = make([]uint64, 1<<m.bitsA)
	for i := range m.setA {
		m.setA[i] = emptySlot
	}
	mask := uint64(len(m.setA) - 1)
	for _, g := range pa {
		i := gramHash(g, m.bitsA)
		for m.setA[i] != emptySlot {
			i = (i + 1) & mask
		}
		m.setA[i] = g
	}
	return m
}

// inA reports whether gram g is in a's set.
func (m *qgramMatcher) inA(g uint64) bool {
	mask := uint64(len(m.setA) - 1)
	for i := gramHash(g, m.bitsA); ; i = (i + 1) & mask {
		switch m.setA[i] {
		case g:
			return true
		case emptySlot:
			return false
		}
	}
}

// reset starts a new generation of the scratch table, sized for up to n
// grams. A wrapped generation counter clears the stamps once.
func (m *qgramMatcher) reset(n int) {
	if bits := tableBits(n); bits > m.bitsB {
		m.bitsB = bits
		m.seen = make([]seenSlot, 1<<bits)
		m.gen = 0
	}
	m.gen++
	if m.gen == 0 {
		clear(m.seen)
		m.gen = 1
	}
}

// add records gram g of b and reports whether it was new.
func (m *qgramMatcher) add(g uint64) bool {
	mask := uint64(len(m.seen) - 1)
	for i := gramHash(g, m.bitsB); ; i = (i + 1) & mask {
		s := &m.seen[i]
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
// jaccardSorted's empty-set rules.
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
	m.grams = AppendPackedQGrams(m.grams[:0], b, m.q, m.fold)
	m.reset(len(m.grams))
	inter, distinct := 0, 0
	for _, g := range m.grams {
		if m.add(g) {
			distinct++
			if m.inA(g) {
				inter++
			}
		}
	}
	return float64(inter) / float64(m.nA+distinct-inter)
}
