package simfn

import "math/bits"

// EditSim is the normalized Levenshtein similarity:
// 1 - editDistance(a, b) / max(len(a), len(b)), over runes.
type EditSim struct{}

// Name implements Func.
func (EditSim) Name() string { return "edit-sim" }

// Sim implements Func. Both-empty inputs compare equal (similarity 1).
func (EditSim) Sim(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	n := len(ra)
	if len(rb) > n {
		n = len(rb)
	}
	if n == 0 {
		return 1
	}
	return 1 - float64(EditDistance(a, b))/float64(n)
}

// EditDistance returns the Levenshtein distance between a and b over runes,
// with unit costs for insertion, deletion and substitution.
func EditDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	// Single-row dynamic program.
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitute
			if d := prev[j] + 1; d < m { // delete
				m = d
			}
			if d := cur[j-1] + 1; d < m { // insert
				m = d
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// EditDistanceWithin is EditDistance for callers that only ask whether the
// distance is at most k: it returns the exact distance when that is ≤ k
// and some value > k otherwise. It gives up once a whole row of the
// dynamic program exceeds k, since no later row can fall below its
// minimum. Tokens of up to 32 runes stay on the stack.
func EditDistanceWithin(a, b string, k int) int {
	var bufA [32]rune
	return EditDistanceRunesWithin(appendRunes(bufA[:0], a), b, k)
}

// EditDistanceRunesWithin is EditDistanceWithin with a given as its
// decoded runes ([]rune(a)), for callers that compare one string with
// many and decode it once.
func EditDistanceRunesWithin(ra []rune, b string, k int) int {
	var bufB [32]rune
	rb := appendRunes(bufB[:0], b)
	if d := len(ra) - len(rb); d > k || -d > k {
		return k + 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return len(ra) + len(rb)
	}
	var rows [2 * 33]int
	prev, cur := rows[:33], rows[33:]
	if len(rb) >= 33 {
		prev, cur = make([]int, len(rb)+1), make([]int, len(rb)+1)
	}
	for j := 0; j <= len(rb); j++ {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		rowMin := i
		for j := 1; j <= len(rb); j++ {
			m := prev[j-1] // substitute
			if ra[i-1] != rb[j-1] {
				m++
			}
			if d := prev[j] + 1; d < m { // delete
				m = d
			}
			if d := cur[j-1] + 1; d < m { // insert
				m = d
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if rowMin > k {
			return k + 1
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// appendRunes appends the runes of s to dst, decoding invalid bytes to
// U+FFFD exactly as []rune(s) does.
func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// RuneMask returns the runes of s folded into a 64-bit set: bit r%64 is
// set for every rune r, an invalid UTF-8 byte counting as U+FFFD as
// []rune(s) decodes it. MaskDistanceBound turns two masks into a lower
// bound on the edit distance.
func RuneMask(s string) uint64 {
	var m uint64
	for _, r := range s {
		m |= 1 << (uint32(r) % 64)
	}
	return m
}

// MaskDistanceBound returns a lower bound on EditDistance(a, b) given
// ma = RuneMask(a) and mb = RuneMask(b). Every bit of ma &^ mb stands for
// at least one rune of a with no rune of b in its bit class. Each such
// rune must be deleted or substituted; one edit removes at most one rune
// of a, and runes on different bits are different runes. So the distance
// is at least popcount(ma &^ mb), and by the same argument over the runes
// of b that must be inserted, at least popcount(mb &^ ma). Runes that share
// a bit merge into one class, which can only lower the counts.
func MaskDistanceBound(ma, mb uint64) int {
	return max(bits.OnesCount64(ma&^mb), bits.OnesCount64(mb&^ma))
}
