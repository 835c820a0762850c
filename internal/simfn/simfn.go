// Package simfn provides the attribute similarity functions used throughout
// the SERD pipeline (paper §II-B).
//
// Every function maps a pair of attribute values, represented as strings, to
// a similarity score in [0, 1]. The paper's default configuration — 3-gram
// Jaccard for categorical and textual columns, min-max scaled absolute
// difference for numeric and date columns — is available through
// DefaultForKind.
package simfn

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Func computes a similarity score in [0, 1] between two attribute values.
type Func interface {
	// Name identifies the function, e.g. "3gram-jaccard".
	Name() string
	// Sim returns the similarity of a and b. Implementations must be
	// symmetric (Sim(a,b) == Sim(b,a)) and return values in [0, 1].
	Sim(a, b string) float64
}

// Preprocessor is implemented by similarity functions whose per-value
// tokenization dominates Sim's cost and can be hoisted out of comparison
// loops (q-gram and token sets). The hot paths — the rule synthesizer's
// edit walks, categorical synthesis, and similarity-vector computation —
// prep each value once and compare prepped representations.
type Preprocessor interface {
	Func
	// Prep returns a reusable representation of v.
	Prep(v string) any
	// SimPrepped computes the similarity of two Prep results. For any
	// values a and b, SimPrepped(Prep(a), Prep(b)) must equal Sim(a, b)
	// bit for bit — preprocessing is a caching layer, never an
	// approximation.
	SimPrepped(a, b any) float64
}

// Bind returns sim(a, ·) with a's preprocessing hoisted out of the loop:
// when f is a Preprocessor, a is prepped once and every call pays only for
// b. The returned function equals f.Sim(a, b) exactly. For QGramJaccard
// with q ≤ 3 it is the Start of the q-gram matcher BindScorer returns, which
// counts b's grams against a's table without sorting or allocating and
// keeps that table between calls, so the returned function must be called
// from one goroutine at a time; bind once per goroutine. An edit walk
// scores through BindScorer instead, which also scores an edit of the
// walk's current string from the grams the edit changes.
func Bind(f Func, a string) func(b string) float64 {
	if qg, ok := f.(QGramJaccard); ok && qg.q() <= MaxPackedQ {
		return newQGramMatcher(qg, a).Start
	}
	if pp, ok := f.(Preprocessor); ok {
		pa := pp.Prep(a)
		return func(b string) float64 { return pp.SimPrepped(pa, pp.Prep(b)) }
	}
	return func(b string) float64 { return f.Sim(a, b) }
}

// Equivalence returns a test under which f cannot tell two values apart:
// when it holds for a and b, f.Sim(x, a) and f.Sim(x, b) have the same
// bits for every x, and so do Bind(f, x)(a) and Bind(f, x)(b). It returns
// nil when string equality is the only such test it knows, which is so
// for every Func but QGramJaccard with Fold. That one compares values
// case-folded, and two values of equal length whose bytes differ only in
// ASCII letter case fold to the same units: an ASCII byte is never part
// of a multi-byte sequence, so both decode at the same boundaries, and
// A–Z fold to a–z. Any other byte difference (a non-ASCII case pair such
// as "ǅ"/"Ǆ", a tab for a space, a length change) is not equivalent, even
// where it happens to score the same.
func Equivalence(f Func) func(a, b string) bool {
	if qg, ok := f.(QGramJaccard); ok && qg.Fold {
		return equalFoldASCII
	}
	return nil
}

// equalFoldASCII reports whether a and b have equal length and equal
// bytes up to ASCII letter case.
func equalFoldASCII(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		if x, y := a[i], b[i]; x != y {
			// Only a letter and its other case agree once bit 5 is set.
			if c := x | 0x20; c != y|0x20 || c < 'a' || c > 'z' {
				return false
			}
		}
	}
	return true
}

// Inverter is implemented by similarity functions that can synthesize a
// counterpart value: given an existing value and a target similarity, Invert
// returns a value v with Sim(a, v) as close as possible to target. The
// returned similarity is Sim(a, v). next is a deterministic source of
// uniform floats in [0,1) used to break ties (e.g. the ± choice for numeric
// columns, paper §IV-B1).
type Inverter interface {
	Func
	Invert(a string, target float64, next func() float64) (v string, sim float64)
}

// QGramJaccard is the q-gram Jaccard similarity. The paper uses Q = 3
// ("3-gram jaccard") for categorical and textual columns. With Fold set,
// values are lower-cased before comparison — the paper's Figure 1(c) scores
// a case-only title difference as 1.0, implying case folding.
type QGramJaccard struct {
	Q    int
	Fold bool
}

// Name implements Func.
func (f QGramJaccard) Name() string { return fmt.Sprintf("%dgram-jaccard", f.q()) }

func (f QGramJaccard) q() int {
	if f.Q <= 0 {
		return 3
	}
	return f.Q
}

// Sim implements Func. Both-empty inputs compare equal (similarity 1).
func (f QGramJaccard) Sim(a, b string) float64 {
	return f.SimPrepped(f.Prep(a), f.Prep(b))
}

// Prep implements Preprocessor: the case-folded, sorted q-gram set — packed
// uint64 keys for q ≤ MaxPackedQ (see AppendPackedQGrams), gram substrings
// above that. The representation depends on Q alone, so any two Prep
// results of one QGramJaccard compare.
func (f QGramJaccard) Prep(v string) any {
	q := f.q()
	if q > MaxPackedQ {
		if f.Fold {
			v = strings.ToLower(v)
		}
		return sortedQGrams(v, q)
	}
	if v == "" {
		return []uint64(nil)
	}
	// len(v) bytes bound the unit count from above.
	grams := AppendPackedQGrams(make([]uint64, 0, max(len(v)-q+1, 1)), v, q, f.Fold)
	slices.Sort(grams)
	return slices.Compact(grams)
}

// SimPrepped implements Preprocessor.
func (f QGramJaccard) SimPrepped(a, b any) float64 {
	if f.q() > MaxPackedQ {
		return jaccardSorted(a.([]string), b.([]string))
	}
	return jaccardPacked(a.([]uint64), b.([]uint64))
}

// PrepSize returns the number of distinct grams in a Prep result.
func (f QGramJaccard) PrepSize(p any) int {
	if f.q() > MaxPackedQ {
		return len(p.([]string))
	}
	return len(p.([]uint64))
}

// SimBound returns an upper bound on SimPrepped(a, b) from the two set
// sizes alone: min(|a|,|b|)/max(|a|,|b|), and 1 when both are empty. The
// intersection has at most min elements and the union at least max, and
// both ratios are one correctly rounded division of exact integers, which
// is monotone, so SimPrepped(a, b) ≤ SimBound(a, b) holds for the float64
// values too. Neither is ever NaN.
func (f QGramJaccard) SimBound(a, b any) float64 {
	na, nb := f.PrepSize(a), f.PrepSize(b)
	if na == 0 && nb == 0 {
		return 1
	}
	return float64(min(na, nb)) / float64(max(na, nb))
}

// MaxPackedQ is the largest q whose grams pack into one uint64 key: three
// 21-bit units use bits 0–62.
const MaxPackedQ = 3

// AppendPackedQGrams appends the packed key of every q-gram of s
// (1 ≤ q ≤ MaxPackedQ) to dst, in position order and with repeats. Two
// keys are equal exactly when the gram substrings AppendQGrams yields for
// the same value are equal, so any set measure over the keys — Jaccard, a
// shared-gram count — equals the one over substrings. It is the one
// packing rule behind QGramJaccard's Prep, the bound matcher and the
// q-gram blocker.
//
// Each gram packs its q units at 21 bits apiece, the first unit highest.
// A unit is a decoded rune; an invalid UTF-8 byte b, which AppendQGrams
// slices as a one-byte "rune", becomes its own unit 0x110000|b, above
// every rune, so a literal U+FFFD stays distinct from the bytes it
// replaces. With fold set the units are those of strings.ToLower(s),
// computed without building it: ASCII A–Z map to a–z, every other rune
// through unicode.ToLower, and an invalid byte — which ToLower rewrites
// to U+FFFD — is the unit 0xFFFD. A non-empty value shorter than q is one
// gram with bit 63 set, its unit count in bits 61–62 and its units from
// bit 0 up: it never equals a full gram, and the count keeps "a" apart
// from "a\x00". No key is ^uint64(0).
func AppendPackedQGrams(dst []uint64, s string, q int, fold bool) []uint64 {
	mask := uint64(1)<<(21*q) - 1
	var g uint64
	k := 0 // units read
	for i := 0; i < len(s); k++ {
		// ASCII inline; packUnit does the rest.
		u, size := uint64(s[i]), 1
		if u >= utf8.RuneSelf {
			u, size = packUnit(s, i, fold)
		} else if fold && 'A' <= u && u <= 'Z' {
			u += 'a' - 'A'
		}
		g = (g<<21 | u) & mask
		if k+1 >= q {
			dst = append(dst, g)
		}
		i += size
	}
	if k == 0 || k >= q {
		return dst
	}
	return append(dst, shortPackedKey(s, k, fold))
}

// shortPackedKey is the one key of a non-empty value s of k < q units
// (see AppendPackedQGrams).
func shortPackedKey(s string, k int, fold bool) uint64 {
	key := uint64(1)<<63 | uint64(k)<<61
	for i, shift := 0, 0; i < len(s); shift += 21 {
		u, size := packUnit(s, i, fold)
		key |= u << shift
		i += size
	}
	return key
}

// packUnit decodes the gram unit at s[i:] and its width in bytes (see
// AppendPackedQGrams).
func packUnit(s string, i int, fold bool) (uint64, int) {
	c := s[i]
	if c < utf8.RuneSelf {
		if fold && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		return uint64(c), 1
	}
	r, size := utf8.DecodeRuneInString(s[i:])
	if fold {
		return uint64(unicode.ToLower(r)), size
	}
	if r == utf8.RuneError && size == 1 {
		return 0x110000 | uint64(c), 1
	}
	return uint64(r), size
}

// QGrams returns the multiset-collapsed set of q-grams of s, computed over
// runes. A non-empty string shorter than q contributes itself as a single
// gram, so short values still compare meaningfully.
func QGrams(s string, q int) map[string]struct{} {
	set := make(map[string]struct{})
	if s == "" {
		return set
	}
	r := []rune(s)
	if len(r) < q {
		set[string(r)] = struct{}{}
		return set
	}
	for i := 0; i+q <= len(r); i++ {
		set[string(r[i:i+q])] = struct{}{}
	}
	return set
}

// sortedQGrams returns the multiset-collapsed q-grams of s as a sorted,
// deduplicated slice of rune-aligned substrings of s (no per-gram copy).
// For valid UTF-8 it has the semantics of QGrams; an invalid byte, which
// QGrams decodes to U+FFFD, stays a distinct one-byte "rune" here. It is
// QGramJaccard's representation for q > MaxPackedQ and the oracle the
// packed grams are tested against.
func sortedQGrams(s string, q int) []string {
	out := AppendQGrams(nil, s, q)
	slices.Sort(out)
	return slices.Compact(out)
}

// AppendQGrams appends the gram at every q-gram position of s (q ≥ 1) to
// dst, in position order and with repeats, as rune-aligned substrings of s (no
// per-gram copy); a non-empty s shorter than q is one gram. An invalid
// UTF-8 byte is a one-byte "rune", so for valid UTF-8 — and
// strings.ToLower's output always is, since it rewrites invalid bytes to
// U+FFFD — the distinct grams are exactly the set QGrams returns. Callers
// that dedupe grams themselves (an index build) skip sortedQGrams' sort.
func AppendQGrams(dst []string, s string, q int) []string {
	if s == "" {
		return dst
	}
	hi := 0 // byte end of the window of q runes starting at lo
	for k := 0; k < q; k++ {
		if hi == len(s) {
			return append(dst, s)
		}
		_, size := utf8.DecodeRuneInString(s[hi:])
		hi += size
	}
	for lo := 0; ; {
		dst = append(dst, s[lo:hi])
		if hi == len(s) {
			return dst
		}
		_, size := utf8.DecodeRuneInString(s[lo:])
		lo += size
		_, size = utf8.DecodeRuneInString(s[hi:])
		hi += size
	}
}

// jaccardSorted computes the Jaccard similarity of two sorted, deduplicated
// slices by merge intersection. Empty-set conventions: both empty compare
// equal (1), one empty compares disjoint (0).
func jaccardSorted(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// jaccardPacked is jaccardSorted for packed gram keys, with a branch-free
// merge: on random sets the comparison branches of a switch mispredict
// about every other step, while the increments below compile to flag
// moves. The count, and so the value, is jaccardSorted's.
func jaccardPacked(a, b []uint64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		inter += b2i(x == y)
		i += b2i(x <= y)
		j += b2i(y <= x)
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// b2i is 1 for true and 0 for false; on amd64 the compiler turns it into
// a flag set (SETcc), not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TokenJaccard is the Jaccard similarity over whitespace-separated tokens.
type TokenJaccard struct{}

// Name implements Func.
func (TokenJaccard) Name() string { return "token-jaccard" }

// Sim implements Func.
func (TokenJaccard) Sim(a, b string) float64 {
	return jaccardSorted(sortedTokens(a), sortedTokens(b))
}

// Prep implements Preprocessor: the sorted token set.
func (TokenJaccard) Prep(v string) any { return sortedTokens(v) }

// SimPrepped implements Preprocessor.
func (TokenJaccard) SimPrepped(a, b any) float64 {
	return jaccardSorted(a.([]string), b.([]string))
}

// sortedTokens splits on space/tab/newline (the delimiters tokenSet always
// used) into a sorted, deduplicated slice.
func sortedTokens(s string) []string {
	var out []string
	start := -1
	for i, r := range s {
		if r == ' ' || r == '\t' || r == '\n' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Exact is the 0/1 equality similarity.
type Exact struct{}

// Name implements Func.
func (Exact) Name() string { return "exact" }

// Sim implements Func.
func (Exact) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}

// Numeric is the min-max scaled absolute-difference similarity the paper
// uses for numeric columns: 1 - |a-b| / (Max-Min) (Example 2). Values that
// fail to parse as floats, or fall far outside [Min, Max], clamp to
// similarity 0.
type Numeric struct {
	Min, Max float64
}

// Name implements Func.
func (Numeric) Name() string { return "numeric-minmax" }

// Sim implements Func.
func (f Numeric) Sim(a, b string) float64 {
	x, errX := strconv.ParseFloat(a, 64)
	y, errY := strconv.ParseFloat(b, 64)
	if errX != nil || errY != nil {
		if a == b {
			return 1
		}
		return 0
	}
	span := f.Max - f.Min
	if span <= 0 {
		if x == y {
			return 1
		}
		return 0
	}
	s := 1 - math.Abs(x-y)/span
	if s < 0 {
		return 0
	}
	return s
}

// Invert implements Inverter: it solves 1 - |a-v|/(Max-Min) = target for v,
// choosing the + or - branch uniformly (the paper samples one of the two
// roots, §IV-B1) and clamping to [Min, Max]. When a does not parse, the
// original value is returned with similarity 1.
func (f Numeric) Invert(a string, target float64, next func() float64) (string, float64) {
	x, err := strconv.ParseFloat(a, 64)
	if err != nil {
		return a, 1
	}
	span := f.Max - f.Min
	if span <= 0 {
		return a, 1
	}
	delta := (1 - clamp01(target)) * span
	v := x + delta
	if next() < 0.5 {
		v = x - delta
	}
	// Clamp into the column's range; if clamping moved us, the opposite
	// branch may fit better.
	if v < f.Min || v > f.Max {
		alt := x + delta
		if v == alt {
			alt = x - delta
		}
		if alt >= f.Min && alt <= f.Max {
			v = alt
		} else {
			v = math.Max(f.Min, math.Min(f.Max, v))
		}
	}
	out := formatLike(a, v)
	return out, f.Sim(a, out)
}

// formatLike renders v with the same decimal precision as the source value
// a, so synthesized numeric values look like the column they join (years
// stay integers, prices keep two decimals).
func formatLike(a string, v float64) string {
	decimals := 0
	if i := strings.IndexByte(a, '.'); i >= 0 {
		decimals = len(a) - i - 1
	}
	if decimals == 0 {
		return strconv.FormatInt(int64(math.Round(v)), 10)
	}
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Date treats values as integer day ordinals (or any integer-valued time
// unit) with min-max scaling, mirroring the paper's statement that "date
// type has a similar synthesizing process with the numerical type". Callers
// convert real date strings to ordinals in the dataset layer.
type Date struct {
	Min, Max float64
}

// Name implements Func.
func (Date) Name() string { return "date-minmax" }

// Sim implements Func.
func (f Date) Sim(a, b string) float64 { return Numeric(f).Sim(a, b) }

// Invert implements Inverter.
func (f Date) Invert(a string, target float64, next func() float64) (string, float64) {
	return Numeric(f).Invert(a, target, next)
}
