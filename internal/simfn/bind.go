package simfn

import (
	"unicode/utf8"
	"unsafe"
)

// A Scorer scores strings against the reference value it was bound to
// (see BindScorer), and scores an edit walk incrementally: the walk starts
// from an origin, scores a candidate edit of its current string, and
// either keeps it, leaves the current string as it is, or restarts from
// the origin. Every score has the bits the bound similarity gives the
// whole string scored. A Scorer keeps state between calls, so it serves
// one goroutine at a time.
type Scorer interface {
	// Start returns the similarity of s to the reference and makes s the
	// walk's origin and current string, ending any walk in progress. A
	// string scored outside a walk is scored with Start.
	Start(s string) float64
	// Score returns the similarity of cur[:i] + rep + cur[j:] to the
	// reference, where cur is the current string and 0 ≤ i ≤ j ≤
	// len(cur). It keeps neither cur nor rep, so both may view a buffer
	// the caller reuses.
	Score(cur string, i, j int, rep string) float64
	// Keep makes the string the last Score call scored the current one.
	Keep()
	// Restart makes the origin the current string again.
	Restart()
}

// BindScorer returns a Scorer against a. For QGramJaccard with q ≤ 3 it
// is the q-gram matcher (see qgramMatcher), which scores an edit from the
// grams it changes; for every other Func it is FuncScorer over Bind(f, a)
// and Equivalence(f).
func BindScorer(f Func, a string) Scorer {
	if qg, ok := f.(QGramJaccard); ok && qg.q() <= MaxPackedQ {
		return newQGramMatcher(qg, a)
	}
	return FuncScorer(Bind(f, a), Equivalence(f))
}

// FuncScorer returns a Scorer that builds each edited string in a scratch
// buffer and scores it with sim, which scores one value against the
// reference. sim must be pure (the same argument always gives the same
// float bits) and must not keep its argument, which views the buffer.
// same(a, b) reports that sim cannot tell a from b, so it must imply that
// sim(a) and sim(b) have the same bits (Equivalence gives such a test for
// a Func); nil means string equality. An edited string equal to the
// current one, or the same as it under same — LowerCase on lower-case
// text, a token op on one token, a case op under a case-folding
// similarity — takes the current string's score without a sim call.
func FuncScorer(sim func(string) float64, same func(a, b string) bool) Scorer {
	return &funcScorer{sim: sim, same: same}
}

type funcScorer struct {
	sim             func(string) float64
	same            func(a, b string) bool
	orig, cur, next float64 // the scores of the origin, the current string and the last one scored
	buf             []byte  // the last string scored
}

func (f *funcScorer) Start(s string) float64 {
	f.orig = f.sim(s)
	f.cur = f.orig
	return f.orig
}

func (f *funcScorer) Score(cur string, i, j int, rep string) float64 {
	f.buf = append(append(append(f.buf[:0], cur[:i]...), rep...), cur[j:]...)
	b := view(f.buf) // for this call only: sim and same keep neither argument
	f.next = f.cur
	if b != cur && (f.same == nil || !f.same(b, cur)) {
		f.next = f.sim(b)
	}
	return f.next
}

func (f *funcScorer) Keep()    { f.cur = f.next }
func (f *funcScorer) Restart() { f.cur = f.orig }

// view returns the bytes of b as a string without copying them. The
// string is valid until b's bytes are next written.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// qgramMatcher is QGramJaccard{Q ≤ 3} bound to a fixed left value a. It
// holds one open-addressing table: a's distinct packed grams (the Prep
// result), which never leave it, and the grams of the string being scored
// that lie outside a, each slot with the string's count of its gram.
// Jaccard is an integer ratio of set sizes: with inter distinct grams of b
// in a and outside distinct grams of b not in a, the union is |A| +
// outside, the same integer as |A| + |B| − inter, so inter/(|A|+outside)
// equals SimPrepped(Prep(a), Prep(b)) bit for bit.
//
// Start counts a string's grams afresh under a new generation: a slot
// tagged with an older generation holds no count, so a's slots read as
// count 0 and every other slot is free, and Start writes only the slots of
// the string's own grams. Score counts only the grams an edit changes. A
// gram is q consecutive units, so replacing cur's bytes [i, j) changes
// just the grams of the window that reaches q−1 units either side of the
// edit: the window's grams in cur leave the multiset, those of the edited
// window enter it, and a count moving between 0 and 1 moves inter or
// outside. Units the replacement leaves as they were (a case change under
// Fold, a rewrite that repeats the old bytes) are trimmed from the edit
// first, so such an edit changes no gram and keeps the score. A window
// that covers the whole string holds its short key (see
// AppendPackedQGrams). Window boundaries must not move the decoding of the
// units around them, so an edit of invalid UTF-8, or one whose ends are
// not rune boundaries, is scored as a rewrite of the whole string.
//
// Every count change since the origin is logged, kept edits first, then
// the edit last scored. The next Score undoes an edit Keep did not keep,
// and Restart undoes them all, newest first, so a slot taken for a gram is
// free again as it was and the table is the origin's.
//
// A walk from an origin of at most rescanLen bytes skips the window and
// the log: Score trims the edit as above, then counts the edited string
// afresh under a new generation, as Start does, and Keep and Restart only
// move tallies.
type qgramMatcher struct {
	q    int
	fold bool
	nA   int        // |A|, the number of distinct grams of a
	a    []uint64   // a's distinct grams
	tab  []gramSlot // 2^bits slots
	bits uint
	live int    // the slots this generation uses: a's grams and those outside a
	gen  uint32 // the current generation, in [1, 2³¹)

	origin          string
	cur, orig, next tally    // the current string, the origin and the string last scored
	log             []change // count changes since the origin
	kept            int      // the changes of kept edits: log[:kept]
	rescan          bool     // Score counts each edited string afresh
	grams           []uint64 // the grams being counted
	win             []byte   // the edited window
}

// rescanLen is the longest origin whose edits Score counts afresh. On a
// string this short a fresh count of the edited string costs no more than
// trimming, windowing and logging an edit (measured on walks over 20–128
// byte values: about even at 32 bytes, incremental 15–30% ahead from 64).
const rescanLen = 32

// gramSlot is one slot of the matcher's table. Its count is live only
// while its tag holds the matcher's generation; a slot outside a whose
// tag holds an older one is free.
type gramSlot struct {
	key uint64
	tag uint32 // the generation of the slot's count << 1, | 1 for a gram of a
	cnt int32  // the gram's count in the string being scored
}

// tally is what the score of a string depends on.
type tally struct {
	inter, outside int // distinct grams in a and outside a
	empty          bool
	valid          bool // the string is valid UTF-8
	score          float64
}

// change is one logged count change: slot idx held cnt before it, or was
// free when cnt is -1.
type change struct{ idx, cnt int32 }

// gramHash is Fibonacci hashing: the top bits of g·2⁶⁴/φ index a table
// of 2^bits slots.
func gramHash(g uint64, bits uint) uint64 { return (g * 0x9E3779B97F4A7C15) >> ((64 - bits) & 63) }

// tableBits returns the log2 size of a table holding n keys at load ≤ ½.
func tableBits(n int) uint {
	bits := uint(3)
	for 1<<bits < 2*n {
		bits++
	}
	return bits
}

func newQGramMatcher(f QGramJaccard, a string) *qgramMatcher {
	m := &qgramMatcher{q: f.q(), fold: f.Fold}
	m.a = f.Prep(a).([]uint64)
	m.nA = len(m.a)
	m.resize(m.nA + len(a)) // room to count a; a walk grows it as it needs
	m.log = make([]change, 0, 256)
	m.grams = make([]uint64, 0, 2*len(a)+16)
	return m
}

// resize makes a new table that fits n used slots at load ≤ ½ and holds
// a's grams at generation 0, which no count uses. Nothing is counted in
// it until the next Start.
func (m *qgramMatcher) resize(n int) {
	m.bits = tableBits(n)
	m.tab = make([]gramSlot, 1<<m.bits)
	mask := uint64(len(m.tab) - 1)
	for _, g := range m.a {
		i := gramHash(g, m.bits)
		for m.tab[i].tag != 0 {
			i = (i + 1) & mask
		}
		m.tab[i] = gramSlot{key: g, tag: 1} // generation 0: no count
	}
	m.gen = 0
	m.live = m.nA
	m.log, m.kept = m.log[:0], 0
}

// rollback undoes the logged changes from log[to] on, newest first.
func (m *qgramMatcher) rollback(to int) {
	for k := len(m.log) - 1; k >= to; k-- {
		c := m.log[k]
		if c.cnt < 0 {
			m.tab[c.idx].tag = 0
			m.live--
		} else {
			m.tab[c.idx].cnt = c.cnt
		}
	}
	m.log = m.log[:to]
}

// score is the Jaccard similarity of a string with tally t, with
// jaccardSorted's empty-set rules.
func (m *qgramMatcher) score(t tally) float64 {
	if t.empty {
		if m.nA == 0 {
			return 1
		}
		return 0
	}
	if m.nA == 0 {
		return 0
	}
	return float64(t.inter) / float64(m.nA+t.outside)
}

// Start returns the Jaccard similarity of a's and s's q-gram sets and
// makes s the origin.
func (m *qgramMatcher) Start(s string) float64 {
	m.origin = s
	m.log, m.kept = m.log[:0], 0
	m.rescan = len(s) <= rescanLen
	m.next = m.countAfresh(s, utf8.ValidString(s))
	m.cur, m.orig = m.next, m.next
	return m.cur.score
}

// countAfresh counts the grams of s, whose validity as UTF-8 is valid,
// under a new generation and returns its tally. A generation counter about to wrap takes every count back to
// generation 0 and frees every slot outside a, so no tag from before the
// wrap reads as live.
func (m *qgramMatcher) countAfresh(s string, valid bool) tally {
	if 2*(m.nA+len(s)) > len(m.tab) { // len(s) bytes bound its gram count
		m.resize(m.nA + len(s))
	}
	if m.gen++; m.gen == 1<<31 {
		for i := range m.tab {
			m.tab[i].tag &= 1
		}
		m.gen = 1
	}
	m.grams = AppendPackedQGrams(m.grams[:0], s, m.q, m.fold)
	inter, outside := 0, 0
	tab, tag := m.tab, m.gen<<1
	mask := uint64(len(tab) - 1)
	for _, g := range m.grams {
		for j := gramHash(g, m.bits); ; j = (j + 1) & mask {
			sl := &tab[j]
			if sl.tag&^1 == tag { // counted already
				if sl.key == g {
					sl.cnt++
					break
				}
				continue
			}
			if sl.tag&1 == 0 { // free: g is outside a and new
				*sl = gramSlot{key: g, tag: tag, cnt: 1}
				outside++
				break
			}
			if sl.key == g { // a's gram, new
				sl.tag, sl.cnt = tag|1, 1
				inter++
				break
			}
		}
	}
	m.live = m.nA + outside
	t := tally{inter: inter, outside: outside, empty: s == "", valid: valid}
	t.score = m.score(t)
	return t
}

// move moves the counts of old's grams down and those of edited's up (see
// bump). Both are all of their strings when whole, else windows, which
// hold no short key. A gram both hold would move down and up again and
// end as it was, so a pair of equal grams is dropped first when the
// windows are short enough to pair them up cheaply.
func (m *qgramMatcher) move(old, edited string, whole bool) {
	g := m.pack(m.grams[:0], old, whole)
	n := len(g)
	g = m.pack(g, edited, whole)
	down, up := g[:n], g[n:]
	if len(down)*len(up) <= 1024 {
	pair:
		for k := 0; k < len(up); {
			for x, d := range down {
				if d == up[k] {
					down[x], down = down[len(down)-1], down[:len(down)-1]
					up[k], up = up[len(up)-1], up[:len(up)-1]
					continue pair
				}
			}
			k++
		}
	}
	for _, d := range down {
		m.bump(d, -1)
	}
	for _, u := range up {
		m.bump(u, 1)
	}
	m.grams = g
}

// pack appends the packed grams of w to dst; w is all of its string when
// whole, else a window inside it, where fewer than q units make no gram.
func (m *qgramMatcher) pack(dst []uint64, w string, whole bool) []uint64 {
	n := len(dst)
	dst = AppendPackedQGrams(dst, w, m.q, m.fold)
	if !whole && len(dst) > n && dst[len(dst)-1]>>63 != 0 {
		dst = dst[:len(dst)-1] // the short key
	}
	return dst
}

// bump moves the count of gram g by d, logging the change, and moves
// m.next's inter or outside when the count leaves or reaches 0. A gram
// moved down is one of the current string's, so its count is live; the
// table must have room for one moved up.
func (m *qgramMatcher) bump(g uint64, d int32) {
	tab, tag := m.tab, m.gen<<1
	mask := uint64(len(tab) - 1)
	for j := gramHash(g, m.bits); ; j = (j + 1) & mask {
		s := &tab[j]
		if s.tag&^1 != tag && s.tag&1 == 0 { // g has no slot: take this free one
			*s = gramSlot{key: g, tag: tag, cnt: d}
			m.log = append(m.log, change{int32(j), -1})
			m.next.outside++
			m.live++
			return
		}
		if s.key == g {
			if s.tag&^1 != tag { // a's gram, not counted this generation
				s.tag, s.cnt = tag|1, 0
			}
			m.log = append(m.log, change{int32(j), s.cnt})
			c := s.cnt
			s.cnt += d
			if c == 0 {
				m.next.count(s.tag&1 != 0, 1)
			} else if s.cnt == 0 {
				m.next.count(s.tag&1 != 0, -1)
			}
			return
		}
	}
}

// count moves inter or outside by d.
func (t *tally) count(inA bool, d int) {
	if inA {
		t.inter += d
	} else {
		t.outside += d
	}
}

// Score scores cur with its bytes [i, j) replaced by rep from the grams
// the edit changes.
func (m *qgramMatcher) Score(cur string, i, j int, rep string) float64 {
	m.rollback(m.kept)
	empty := len(cur)-(j-i)+len(rep) == 0
	valid := m.cur.valid && runeStart(cur, i) && runeStart(cur, j) && utf8.ValidString(rep)
	if valid {
		if i, j, rep = m.trim(cur, i, j, rep); i == j && rep == "" {
			m.next = m.cur
			return m.next.score
		}
	}
	if m.rescan {
		m.win = append(append(append(m.win[:0], cur[:i]...), rep...), cur[j:]...)
		if !valid {
			valid = utf8.Valid(m.win)
		}
		m.next = m.countAfresh(view(m.win), valid)
		return m.next.score
	}
	old, whole := cur, true
	if valid {
		lo := i
		for k := 1; k < m.q && lo > 0; k++ {
			lo = lastRuneStart(cur[:lo])
		}
		hi := j
		for k := 1; k < m.q && hi < len(cur); k++ {
			for hi++; !runeStart(cur, hi); hi++ {
			}
		}
		old, whole = cur[lo:hi], lo == 0 && hi == len(cur)
		m.win = append(append(append(m.win[:0], cur[lo:i]...), rep...), cur[j:hi]...)
	} else {
		m.win = append(append(append(m.win[:0], cur[:i]...), rep...), cur[j:]...)
		valid = utf8.Valid(m.win)
	}
	edited := view(m.win) // for this call only
	// len(edited) bytes bound the grams the edit adds.
	m.reserve(cur, len(edited))
	m.next = m.cur
	m.next.empty, m.next.valid = empty, valid
	m.move(old, edited, whole)
	m.next.score = m.score(m.next)
	return m.next.score
}

// reserve makes room in the table for n more grams while cur is the
// current string. A larger table renumbers the slots the log names, so
// it is counted afresh: the origin, then the rewrite of the origin to
// cur as a kept edit.
func (m *qgramMatcher) reserve(cur string, n int) {
	if 2*(m.live+n) <= len(m.tab) {
		return
	}
	atOrigin := m.kept == 0
	m.resize(m.nA + len(m.origin) + len(cur) + n)
	m.Start(m.origin)
	if !atOrigin {
		m.next = m.orig
		m.next.empty, m.next.valid = cur == "", utf8.ValidString(cur)
		m.move(m.origin, cur, true)
		m.next.score = m.score(m.next)
		m.Keep()
	}
}

// trim narrows the edit of valid UTF-8 cur to the units it changes: a
// leading or trailing unit of rep equal to the unit of cur it replaces
// leaves the string's unit sequence, and so its grams, as they were. Two
// ASCII bytes are compared inline; packUnit decodes the rest.
func (m *qgramMatcher) trim(cur string, i, j int, rep string) (int, int, string) {
	for i < j && rep != "" {
		u, w := uint64(cur[i]), 1
		v, x := uint64(rep[0]), 1
		if u|v >= utf8.RuneSelf {
			u, w = packUnit(cur, i, m.fold)
			v, x = packUnit(rep, 0, m.fold)
		} else if u != v && m.fold {
			u, v = lowerASCII(u), lowerASCII(v)
		}
		if u != v {
			break
		}
		i, rep = i+w, rep[x:]
	}
	for i < j && rep != "" {
		a, b := j-1, len(rep)-1
		u, v := uint64(cur[a]), uint64(rep[b])
		if u|v >= utf8.RuneSelf {
			a, b = lastRuneStart(cur[:j]), lastRuneStart(rep)
			u, _ = packUnit(cur, a, m.fold)
			v, _ = packUnit(rep, b, m.fold)
		} else if u != v && m.fold {
			u, v = lowerASCII(u), lowerASCII(v)
		}
		if u != v {
			break
		}
		j, rep = a, rep[:b]
	}
	return i, j, rep
}

// lowerASCII maps an ASCII capital to its lower case.
func lowerASCII(c uint64) uint64 {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// runeStart reports whether byte offset i of s starts a rune or ends s.
func runeStart(s string, i int) bool { return i == len(s) || utf8.RuneStart(s[i]) }

// lastRuneStart returns the offset of the last rune of the valid, non-empty
// UTF-8 string s.
func lastRuneStart(s string) int {
	i := len(s) - 1
	for i > 0 && !utf8.RuneStart(s[i]) {
		i--
	}
	return i
}

// Keep makes the string last scored the current one.
func (m *qgramMatcher) Keep() {
	m.kept = len(m.log)
	m.cur = m.next
}

// Restart makes the origin current again, its counts restored.
func (m *qgramMatcher) Restart() {
	m.rollback(0)
	m.kept = 0
	m.cur = m.orig
}
