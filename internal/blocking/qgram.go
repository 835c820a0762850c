package blocking

import (
	"fmt"
	"math"
	"slices"

	"serd/internal/dataset"
	"serd/internal/parallel"
	"serd/internal/simfn"
	"serd/internal/stats"
)

// QGram blocks on shared character q-grams of one key column: two
// entities are candidates when their case-folded key values share at
// least gramMinShared distinct q-grams (q = gramQ), and each A-entity
// keeps at most gramMaxPer of its candidates.
type QGram struct {
	// Column is the key column index.
	Column int
}

// Describe implements Blocker.
func (g QGram) Describe() string {
	return fmt.Sprintf("qgram(col=%d,q=%d,min_shared=%d,max_per=%d)", g.Column, gramQ, gramMinShared, gramMaxPer)
}

// Candidates implements Blocker. B's case-folded key grams are interned to
// dense ids and indexed as ascending []int32 posting lists; each A-entity
// counts its overlaps in one reused per-B counter. When more than
// gramMaxPer B-entities share gramMinShared grams, the strongest overlaps
// are kept — count descending, ties to the lower index — before anything
// is sorted, and the survivors are emitted by ascending index.
func (g QGram) Candidates(a, b *dataset.Relation) ([]dataset.Pair, error) {
	return g.candidatesOn(nil, a, b)
}

// candidatesOn is Candidates with A probed in contiguous chunks, one per
// worker of pool (phase "blocking.qgram"), each with its own counters. The
// chunks' pairs are concatenated in A order, so the list is the same at
// any worker count.
func (g QGram) candidatesOn(pool *parallel.Pool, a, b *dataset.Relation) ([]dataset.Pair, error) {
	return qgramCut{minShared: gramMinShared, max: gramMaxPer}.candidatesOn(pool, g.Column, a, b)
}

// qgramCut is the rule that turns an A-entity's shared-gram counts into
// its candidates: every B-entity sharing at least minShared grams, cut to
// the max strongest. QGram runs the shipped cut; tests run smaller ones so
// that the cut lands on ties.
type qgramCut struct{ minShared, max int }

// candidatesOn is QGram.candidatesOn on key column col under cut c.
func (c qgramCut) candidatesOn(pool *parallel.Pool, col int, a, b *dataset.Relation) ([]dataset.Pair, error) {
	if err := checkColumn("qgram", col, a, b); err != nil {
		return nil, err
	}
	ix := newGramIndex(b, col)
	n := a.Len()
	w := min(pool.Workers(), n)
	chunks := make([][]dataset.Pair, w)
	pool.Run("blocking.qgram", w, func(k int) {
		lo, hi := k*n/w, (k+1)*n/w
		chunks[k] = ix.probe(c, col, a.Entities[lo:hi], lo)
	})
	if w == 1 {
		return chunks[0], nil
	}
	return slices.Concat(chunks...), nil
}

// gramIndex is the CSR inverted index over B's key grams: the B indices
// holding gram id are postings[start[id]:start[id+1]], ascending.
type gramIndex struct {
	grams           *packedGrams
	start, postings []int32
	nB              int
}

// newGramIndex indexes B's values in column col, interning their grams
// in one pass in B order: a gram's id is its rank by first occurrence in
// B.
func newGramIndex(b *dataset.Relation, col int) *gramIndex {
	grams := newPackedGrams()
	nB := b.Len()
	bytes := 0 // a value has at most one gram per byte
	for _, e := range b.Entities {
		bytes += len(e.Values[col])
	}
	ids := make([]int32, 0, bytes)
	bOff := make([]int, nB+1) // entity j's distinct ids are ids[bOff[j]:bOff[j+1]]
	var sc gramScratch
	for j, e := range b.Entities {
		ids = sc.appendDistinct(ids, grams, e.Values[col], true)
		bOff[j+1] = len(ids)
	}
	n := grams.len()
	start := make([]int32, n+1)
	for _, id := range ids {
		start[id+1]++
	}
	for id := 0; id < n; id++ {
		start[id+1] += start[id]
	}
	postings := make([]int32, len(ids))
	fill := slices.Clone(start[:n])
	for j := 0; j < nB; j++ {
		for _, id := range ids[bOff[j]:bOff[j+1]] {
			postings[fill[id]] = int32(j)
			fill[id]++
		}
	}
	return &gramIndex{grams: grams, start: start, postings: postings, nB: nB}
}

// probe returns the candidate pairs of the A-entities as, which start at
// A index base. It only reads ix, so chunks may probe concurrently.
//
// When an A-entity's posting lists sum to at least |B| entries, its walk
// is dense: counting skips tracking which B-entities it touched, and
// sweepStrongest cuts the counters in index order. Shorter walks track
// the touched entities, so a large B is never swept per A-entity, and
// cut their qualifiers with keepStrongest.
func (ix *gramIndex) probe(c qgramCut, col int, as []*dataset.Entity, base int) []dataset.Pair {
	sc := gramScratch{stamp: make([]int32, ix.grams.len())}
	var out []dataset.Pair
	shared := make([]int32, ix.nB)
	var ids, touched, cands, hist, tied []int32
	for k, e := range as {
		ids = sc.appendDistinct(ids[:0], ix.grams, e.Values[col], false)
		walk := 0
		for _, id := range ids {
			walk += int(ix.start[id+1] - ix.start[id])
		}
		if walk >= len(shared) {
			for _, id := range ids {
				for _, j := range ix.postings[ix.start[id]:ix.start[id+1]] {
					shared[j]++
				}
			}
			cands, hist = sweepStrongest(cands[:0], shared, c.minShared, c.max, len(ids), hist)
			clear(shared)
		} else {
			for _, id := range ids {
				for _, j := range ix.postings[ix.start[id]:ix.start[id+1]] {
					if shared[j] == 0 {
						touched = append(touched, j)
					}
					shared[j]++
				}
			}
			cands = cands[:0]
			for _, j := range touched {
				if int(shared[j]) >= c.minShared {
					cands = append(cands, j)
				}
			}
			if len(cands) > c.max {
				cands, hist, tied = keepStrongest(cands, shared, c.max, len(ids), hist, tied)
			}
			slices.Sort(cands)
			for _, j := range touched {
				shared[j] = 0
			}
			touched = touched[:0]
		}
		for _, j := range cands {
			out = append(out, dataset.Pair{A: base + k, B: int(j)})
		}
	}
	return out
}

// cutoff finds where a cut to the max strongest candidates falls, given
// hist[c], the number of candidates whose count is c, for every c ≥ lo:
// every candidate counting more than t survives, and of those counting t
// the ties with the lowest indices do. When at most max candidates count
// lo or more, all of them survive: t is lo and ties is unbounded.
func cutoff(hist []int32, lo, max int) (t, ties int) {
	above := 0
	for t = len(hist) - 1; t >= lo; t-- {
		if above+int(hist[t]) >= max {
			return t, max - above
		}
		above += int(hist[t])
	}
	return lo, math.MaxInt
}

// sweepStrongest appends to dst, in ascending index order, the indices j
// with shared[j] ≥ minShared, cut to the max strongest as keepStrongest
// cuts them. Counts are at most maxCount. One sweep builds the histogram
// of all counts; a second keeps every count above the cutoff and, since
// it runs in index order, the first ties at it. hist is reusable scratch.
func sweepStrongest(dst, shared []int32, minShared, max, maxCount int, hist []int32) ([]int32, []int32) {
	hist = slices.Grow(hist[:0], maxCount+1)[:maxCount+1]
	clear(hist)
	for _, c := range shared {
		hist[c]++
	}
	t, ties := cutoff(hist, minShared, max)
	for j, c := range shared {
		if int(c) > t {
			dst = append(dst, int32(j))
		} else if int(c) == t && ties > 0 {
			dst = append(dst, int32(j))
			ties--
		}
	}
	return dst, hist
}

// keepStrongest cuts cands, in any order, to the max entries with the
// highest shared counts, ties going to the lower index — the entries a
// count-descending, index-ascending sort truncated to max would keep — and
// returns them unordered. Counts are at most maxCount; a histogram finds
// the cutoff count t, every count above t is kept, and of the ties at t
// the lowest indices that fit are found by selection rather than
// sorting. hist and tied are reusable scratch.
func keepStrongest(cands, shared []int32, max, maxCount int, hist, tied []int32) ([]int32, []int32, []int32) {
	hist = slices.Grow(hist[:0], maxCount+1)[:maxCount+1]
	clear(hist)
	for _, j := range cands {
		hist[shared[j]]++
	}
	t, ties := cutoff(hist, 0, max)
	kept := cands[:0]
	tied = tied[:0]
	for _, j := range cands {
		switch c := int(shared[j]); {
		case c > t:
			kept = append(kept, j)
		case c == t:
			tied = append(tied, j)
		}
	}
	// Indices are distinct, so exactly ties of them are at most the
	// ties-th smallest.
	last := stats.Select(tied, ties-1)
	for _, j := range tied {
		if j <= last {
			kept = append(kept, j)
		}
	}
	return kept, hist, tied
}

// gramScratch is one goroutine's buffers for interning and deduplicating
// the grams of a value.
type gramScratch struct {
	keys  []uint64 // packedGrams' keys
	stamp []int32  // per id: the last call that emitted it
	call  int32
}

// appendDistinct appends the distinct ids of v's grams to dst, in first
// occurrence order.
func (sc *gramScratch) appendDistinct(dst []int32, grams *packedGrams, v string, intern bool) []int32 {
	sc.call++
	n := len(dst)
	dst = grams.appendIDs(dst, v, intern, sc)
	if m := grams.len(); m > len(sc.stamp) {
		sc.stamp = append(sc.stamp, make([]int32, m-len(sc.stamp))...)
	}
	out := dst[:n]
	for _, id := range dst[n:] {
		if sc.stamp[id] != sc.call {
			sc.stamp[id] = sc.call
			out = append(out, id)
		}
	}
	return out
}

// packedGrams interns the case-folded gramQ-grams of key values, the
// grams of simfn.QGrams(strings.ToLower(v), gramQ), as dense ids. It keys
// each gram by its packed uint64 (simfn.AppendPackedQGrams with folding)
// in an open-addressing table with linear probing, kept at most half full.
type packedGrams struct {
	slots []packedSlot // len is a power of two
	shift uint         // 64 − log2(len(slots))
	keys  []uint64     // by id
}

type packedSlot struct {
	key uint64
	id1 int32 // id + 1; 0 marks a free slot
}

// A gram must fit one packed key.
const _ = uint(simfn.MaxPackedQ - gramQ)

func newPackedGrams() *packedGrams {
	return &packedGrams{slots: make([]packedSlot, 8), shift: 64 - 3}
}

// len is the number of ids handed out.
func (x *packedGrams) len() int { return len(x.keys) }

// appendIDs appends the id of each of v's grams to dst, in position order
// and with repeats. With intern set, an unseen gram gets the next id;
// otherwise it is skipped (no B-entity has it) and x is only read, so such
// calls may run concurrently.
func (x *packedGrams) appendIDs(dst []int32, v string, intern bool, sc *gramScratch) []int32 {
	sc.keys = simfn.AppendPackedQGrams(sc.keys[:0], v, gramQ, true)
	if intern {
		x.reserve(len(sc.keys))
	}
	for _, k := range sc.keys {
		s := &x.slots[x.find(k)]
		if s.id1 == 0 {
			if !intern {
				continue
			}
			x.add(s, k)
		}
		dst = append(dst, s.id1-1)
	}
	return dst
}

// reserve grows the table until n more keys keep it at most half full.
func (x *packedGrams) reserve(n int) {
	for 2*(len(x.keys)+n) > len(x.slots) {
		x.grow()
	}
}

// add gives k, which belongs in the free slot s, the next id.
func (x *packedGrams) add(s *packedSlot, k uint64) {
	x.keys = append(x.keys, k)
	s.key, s.id1 = k, int32(len(x.keys))
}

// find returns the slot holding k, or the free slot where it belongs.
// Fibonacci hashing spreads the keys' low-entropy bits over the table.
func (x *packedGrams) find(k uint64) int {
	mask := len(x.slots) - 1
	i := int((k * 0x9E3779B97F4A7C15) >> x.shift)
	for {
		if s := &x.slots[i]; s.id1 == 0 || s.key == k {
			return i
		}
		i = (i + 1) & mask
	}
}

// grow doubles the table and reinserts every key.
func (x *packedGrams) grow() {
	old := x.slots
	x.slots = make([]packedSlot, 2*len(old))
	x.shift--
	for _, s := range old {
		if s.id1 != 0 {
			x.slots[x.find(s.key)] = s
		}
	}
}
