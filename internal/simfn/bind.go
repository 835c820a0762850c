package simfn

import (
	"unicode"
	"unicode/utf8"
)

// qgramMatcher is QGramJaccard{Q ≤ 3} bound to a fixed left value a. It
// holds a's packed gram set (the Prep result) in an open-addressing table
// and streams each b's packed grams through a reusable scratch table, so a
// call allocates nothing and sorts nothing. Jaccard is an integer ratio of
// set sizes, so sim equals SimPrepped(Prep(a), Prep(b)) bit for bit. The
// scratch table makes a matcher single-goroutine.
type qgramMatcher struct {
	q     int
	fold  bool
	nA    int      // |A|, the number of distinct grams of a
	setA  []uint64 // a's grams; emptySlot marks a free slot
	bitsA uint

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

// unit decodes the gram unit at b[i:] and its width in bytes: gramUnit of
// the value Prep sees, which under Fold is strings.ToLower(b). ToLower
// maps ASCII A–Z to a–z, every other valid rune through unicode.ToLower,
// and rewrites each invalid byte to U+FFFD — so a folded invalid byte is
// the unit 0xFFFD, not gramUnit's 0x110000|byte.
func (m *qgramMatcher) unit(b string, i int) (uint64, int) {
	c := b[i]
	if c < utf8.RuneSelf {
		if m.fold && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		return uint64(c), 1
	}
	if !m.fold {
		return gramUnit(b, i)
	}
	r, size := utf8.DecodeRuneInString(b[i:])
	return uint64(unicode.ToLower(r)), size
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
	n := utf8.RuneCountInString(b) // ToLower keeps one rune per unit
	inter, distinct := 0, 1
	if n < m.q {
		// One short gram, packed as packedQGrams does.
		key := uint64(1)<<63 | uint64(n)<<61
		for i, shift := 0, 0; i < len(b); shift += 21 {
			u, size := m.unit(b, i)
			key |= u << shift
			i += size
		}
		if m.inA(key) {
			inter = 1
		}
	} else {
		m.reset(n - m.q + 1)
		distinct = 0
		mask := uint64(1)<<(21*m.q) - 1
		var g uint64
		for i, k := 0, 1; i < len(b); k++ {
			u, size := m.unit(b, i)
			g = (g<<21 | u) & mask
			if k >= m.q && m.add(g) {
				distinct++
				if m.inA(g) {
					inter++
				}
			}
			i += size
		}
	}
	return float64(inter) / float64(m.nA+distinct-inter)
}
