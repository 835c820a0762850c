// Package perturb implements string perturbation operators: controlled
// edits that turn a value into a "dirty duplicate" of itself. They drive
// the match generation of the surrogate datasets, the EMBench baseline's
// rule-based entity modification, and the construction of similarity-bucket
// training pairs for the string synthesizer.
package perturb

import (
	"math/rand"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Op transforms a string into a perturbed variant using r.
type Op func(s string, r *rand.Rand) string

// Typo substitutes one letter for a random lowercase letter. Like
// DeleteChar and DuplicateChar, when s holds invalid UTF-8 and a letter it
// returns the edit with every invalid byte rewritten to U+FFFD.
func Typo(s string, r *rand.Rand) string {
	if !utf8.ValidString(s) {
		return typoRunes(s, r)
	}
	i, w := pickLetter(s, r)
	if w == 0 {
		return s
	}
	k := r.Intn(26)
	return s[:i] + lowercase[k:k+1] + s[i+w:]
}

// DeleteChar removes one letter, rewriting invalid UTF-8 as Typo does.
func DeleteChar(s string, r *rand.Rand) string {
	if !utf8.ValidString(s) {
		return deleteCharRunes(s, r)
	}
	i, w := pickLetter(s, r)
	if w == 0 {
		return s
	}
	return s[:i] + s[i+w:]
}

// DuplicateChar doubles one letter, rewriting invalid UTF-8 as Typo does.
func DuplicateChar(s string, r *rand.Rand) string {
	runes := []rune(s)
	idxs := letterIndexes(runes)
	if len(idxs) == 0 {
		return s
	}
	i := idxs[r.Intn(len(idxs))]
	return string(runes[:i+1]) + string(runes[i:])
}

const lowercase = "abcdefghijklmnopqrstuvwxyz"

// pickLetter draws one letter of the valid UTF-8 string s with
// r.Intn(letter count) and returns its byte offset and width. With no
// letter it makes no draw and returns width 0.
func pickLetter(s string, r *rand.Rand) (i, w int) {
	n := 0
	for _, c := range s {
		if unicode.IsLetter(c) {
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	k := r.Intn(n)
	for i, c := range s {
		if unicode.IsLetter(c) {
			if k == 0 {
				return i, utf8.RuneLen(c)
			}
			k--
		}
	}
	panic("perturb: letter count changed between passes")
}

// typoRunes and deleteCharRunes are the []rune forms of Typo and
// DeleteChar. They serve invalid UTF-8, whose rewrite to U+FFFD by
// string([]rune(s)) is part of the output, and they are the oracles the
// slicing forms are tested against: same output, same draws.
func typoRunes(s string, r *rand.Rand) string {
	runes := []rune(s)
	idxs := letterIndexes(runes)
	if len(idxs) == 0 {
		return s
	}
	i := idxs[r.Intn(len(idxs))]
	runes[i] = rune('a' + r.Intn(26))
	return string(runes)
}

func deleteCharRunes(s string, r *rand.Rand) string {
	runes := []rune(s)
	idxs := letterIndexes(runes)
	if len(idxs) == 0 {
		return s
	}
	i := idxs[r.Intn(len(idxs))]
	return string(runes[:i]) + string(runes[i+1:])
}

// DropToken removes one whitespace-separated token (never the only one).
// Tokens split as strings.Fields splits them and rejoin with single spaces.
func DropToken(s string, r *rand.Rand) string {
	var buf [16]span
	t := appendFields(buf[:0], s)
	if len(t) < 2 {
		return s
	}
	i := r.Intn(len(t))
	return joinFields(s, append(t[:i], t[i+1:]...))
}

// SwapTokens exchanges two adjacent tokens, splitting and rejoining as
// DropToken does.
func SwapTokens(s string, r *rand.Rand) string {
	var buf [16]span
	t := appendFields(buf[:0], s)
	if len(t) < 2 {
		return s
	}
	i := r.Intn(len(t) - 1)
	t[i], t[i+1] = t[i+1], t[i]
	return joinFields(s, t)
}

// span is the byte range [start, end) of one token of a string.
type span struct{ start, end int }

// appendFields appends the tokens of s to dst, split as strings.Fields
// splits: a rune separates when unicode.IsSpace holds, and an invalid
// UTF-8 byte never does. ASCII bytes are tested inline; spaceAt decodes
// the rest.
func appendFields(dst []span, s string) []span {
	i := 0
	for {
		for i < len(s) {
			if c := s[i]; c < utf8.RuneSelf {
				if !asciiSpace[c] {
					break
				}
				i++
				continue
			}
			space, w := spaceAt(s, i)
			if !space {
				break
			}
			i += w
		}
		if i == len(s) {
			return dst
		}
		start := i
		for i < len(s) {
			if c := s[i]; c < utf8.RuneSelf {
				if asciiSpace[c] {
					break
				}
				i++
				continue
			}
			space, w := spaceAt(s, i)
			if space {
				break
			}
			i += w
		}
		dst = append(dst, span{start, i})
	}
}

// asciiSpace marks the ASCII bytes unicode.IsSpace holds for.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// spaceAt reports whether the rune at byte offset i of s, where a
// non-ASCII byte starts, is white space, and its width in bytes (1 for an
// invalid byte).
func spaceAt(s string, i int) (bool, int) {
	c, w := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(c), w
}

// joinFields returns the tokens t of s joined by single spaces, the
// strings.Join(·, " ") of their substrings.
func joinFields(s string, t []span) string {
	var b strings.Builder
	b.Grow(len(s))
	for k, f := range t {
		if k > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s[f.start:f.end])
	}
	return b.String()
}

// LowerCase folds the string to lower case.
func LowerCase(s string, _ *rand.Rand) string { return strings.ToLower(s) }

// TitleCase upper-cases the first letter of every token, splitting and
// rejoining as DropToken does. A token that is not valid UTF-8 comes out
// with every invalid byte rewritten to U+FFFD, as Typo's does. Input that
// the rebuild would reproduce comes back as it is, without a copy.
func TitleCase(s string, _ *rand.Rand) string {
	var buf [16]span
	t := appendFields(buf[:0], s)
	if titled(s, t) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for k, f := range t {
		if k > 0 {
			b.WriteByte(' ')
		}
		w := s[f.start:f.end]
		if !utf8.ValidString(w) {
			runes := []rune(w)
			runes[0] = unicode.ToUpper(runes[0])
			b.WriteString(string(runes))
			continue
		}
		c, size := utf8.DecodeRuneInString(w)
		b.WriteRune(unicode.ToUpper(c))
		b.WriteString(w[size:])
	}
	return b.String()
}

// titled reports whether TitleCase would rebuild s, whose tokens are t,
// byte for byte: the tokens cover s apart from single ' ' separators,
// every token starts with a rune unicode.ToUpper keeps, and s is valid
// UTF-8.
func titled(s string, t []span) bool {
	end := 0 // the end of the previous token
	for k, f := range t {
		if k == 0 && f.start != 0 || k > 0 && (f.start != end+1 || s[end] != ' ') {
			return false
		}
		if c := s[f.start]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				return false
			}
		} else if c, _ := utf8.DecodeRuneInString(s[f.start:]); unicode.ToUpper(c) != c {
			return false
		}
		end = f.end
	}
	return end == len(s) && utf8.ValidString(s)
}

// AbbreviateFirstNames shortens every token except the last of each
// comma-separated person name to its initial: "Donald Kossmann, Alfons
// Kemper" -> "D. Kossmann, A. Kemper" (EMBench's abbreviation rule).
func AbbreviateFirstNames(s string, _ *rand.Rand) string {
	names := strings.Split(s, ",")
	for i, n := range names {
		t := strings.Fields(n)
		if len(t) < 2 {
			names[i] = strings.TrimSpace(n)
			continue
		}
		for j := 0; j < len(t)-1; j++ {
			runes := []rune(t[j])
			if len(runes) > 1 {
				t[j] = string(runes[0]) + "."
			}
		}
		names[i] = strings.Join(t, " ")
	}
	return strings.Join(names, ", ")
}

// ReorderNames shuffles comma-separated person names (a common source of
// low author similarity between bibliographic sources).
func ReorderNames(s string, r *rand.Rand) string {
	names := strings.Split(s, ", ")
	if len(names) < 2 {
		return s
	}
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return strings.Join(names, ", ")
}

// Light returns the mild operator set used for matching-pair generation:
// token reorder, case changes, single-character noise.
func Light() []Op {
	return []Op{Typo, DeleteChar, DuplicateChar, SwapTokens, LowerCase, TitleCase}
}

// Heavy returns the aggressive operator set (adds token drops and name
// rewrites) used to push similarity down toward mid buckets.
func Heavy() []Op {
	return append(Light(), DropToken, AbbreviateFirstNames, ReorderNames)
}

// Apply applies n operators drawn from ops to s.
func Apply(s string, ops []Op, n int, r *rand.Rand) string {
	for i := 0; i < n; i++ {
		s = ops[r.Intn(len(ops))](s, r)
	}
	return s
}

// TowardSimilarity edits s until its similarity to a reference value is
// within tol of target (or maxSteps edits have been applied), returning
// the closest variant found and its similarity. sim scores one value
// against the reference, which the caller fixes: s itself when a corpus
// string is walked into a training pair, the value being synthesized when
// a blend is polished toward it. This is the workhorse behind
// similarity-bucketed training-pair construction and the rule
// synthesizer's edit candidates.
//
// sim must be pure: the same argument always gives the same float bits.
// same(a, b) reports that sim cannot tell a from b, so it must imply that
// sim(a) and sim(b) have the same bits (simfn.Equivalence gives such a
// test for a similarity function); nil means string equality. An edit whose result is the same as the walk's current string
// — LowerCase on lower-case text, a token op on one token, a case op under
// a case-folding similarity — reuses that string's score instead of
// calling sim again.
//
// The walk uses token- and character-level ops but not name abbreviation:
// "T. S. O." artifacts on non-name text read as obviously fake, and
// callers that want abbreviation apply it directly.
func TowardSimilarity(s string, target, tol float64, sim func(string) float64, same func(a, b string) bool, maxSteps int, r *rand.Rand) (string, float64) {
	if same == nil {
		same = func(a, b string) bool { return a == b }
	}
	ops := []Op{Typo, DeleteChar, DropToken, SwapTokens, LowerCase, TitleCase}
	sSim := sim(s)
	best, bestSim := s, sSim
	cur, curSim := s, sSim
	for i := 0; i < maxSteps; i++ {
		if diff := bestSim - target; diff <= tol && diff >= -tol {
			return best, bestSim
		}
		cand := Apply(cur, ops, 1, r)
		cs := curSim
		if !same(cand, cur) {
			cs = sim(cand)
		}
		if abs(cs-target) < abs(bestSim-target) {
			best, bestSim = cand, cs
		}
		// Keep walking from the candidate while it is still above the
		// target (edits only reduce similarity in expectation); restart
		// from the original when we overshoot.
		if cs > target {
			cur, curSim = cand, cs
		} else {
			cur, curSim = s, sSim
		}
	}
	return best, bestSim
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func letterIndexes(runes []rune) []int {
	var idxs []int
	for i, c := range runes {
		if unicode.IsLetter(c) {
			idxs = append(idxs, i)
		}
	}
	return idxs
}
