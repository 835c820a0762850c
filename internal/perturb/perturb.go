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
func DropToken(s string, r *rand.Rand) string {
	t := strings.Fields(s)
	if len(t) < 2 {
		return s
	}
	i := r.Intn(len(t))
	return strings.Join(append(t[:i:i], t[i+1:]...), " ")
}

// SwapTokens exchanges two adjacent tokens.
func SwapTokens(s string, r *rand.Rand) string {
	t := strings.Fields(s)
	if len(t) < 2 {
		return s
	}
	i := r.Intn(len(t) - 1)
	t[i], t[i+1] = t[i+1], t[i]
	return strings.Join(t, " ")
}

// LowerCase folds the string to lower case.
func LowerCase(s string, _ *rand.Rand) string { return strings.ToLower(s) }

// TitleCase upper-cases the first letter of every token.
func TitleCase(s string, _ *rand.Rand) string {
	t := strings.Fields(s)
	for i, w := range t {
		runes := []rune(w)
		if len(runes) > 0 {
			runes[0] = unicode.ToUpper(runes[0])
		}
		t[i] = string(runes)
	}
	return strings.Join(t, " ")
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

// TowardSimilarity perturbs s repeatedly until sim(s, s') is within tol of
// target (or maxSteps edits have been applied), returning the closest
// variant found. sim must be symmetric in its arguments. This is the
// workhorse behind similarity-bucketed training-pair construction.
//
// The walk uses token- and character-level ops but not name abbreviation:
// "T. S. O." artifacts on non-name text read as obviously fake, and
// callers that want abbreviation apply it directly.
func TowardSimilarity(s string, target, tol float64, sim func(a, b string) float64, maxSteps int, r *rand.Rand) (string, float64) {
	ops := []Op{Typo, DeleteChar, DropToken, SwapTokens, LowerCase, TitleCase}
	best, bestSim := s, sim(s, s)
	cur := s
	for i := 0; i < maxSteps; i++ {
		if diff := bestSim - target; diff <= tol && diff >= -tol {
			return best, bestSim
		}
		cand := Apply(cur, ops, 1, r)
		cs := sim(s, cand)
		if abs(cs-target) < abs(bestSim-target) {
			best, bestSim = cand, cs
		}
		// Keep walking from the candidate while it is still above the
		// target (edits only reduce similarity in expectation); restart
		// from the original when we overshoot.
		if cs > target {
			cur = cand
		} else {
			cur = s
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
