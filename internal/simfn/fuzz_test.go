package simfn

import (
	"math"
	"strings"
	"testing"
)

// oracleQGramJaccard is QGramJaccard over gram substrings: the string-set
// representation the packed grams must reproduce bit for bit. QGrams is no
// oracle here — it decodes through []rune and so folds every invalid byte
// to U+FFFD.
func oracleQGramJaccard(f QGramJaccard, a, b string) float64 {
	if f.Fold {
		a, b = strings.ToLower(a), strings.ToLower(b)
	}
	return jaccardSorted(sortedQGrams(a, f.q()), sortedQGrams(b, f.q()))
}

// FuzzQGramJaccard differentially checks Sim and SimPrepped against the
// string-set oracle for Q in {1, 2, 3, 4} with and without folding, and
// that SimBound is a symmetric upper bound on the oracle's value.
func FuzzQGramJaccard(f *testing.F) {
	long := strings.Repeat("abcdefgh", 9) // 72 runes
	seeds := []struct{ a, b string }{
		{"\xff", "\xff"},
		{"ab\xffcd", "ab\xfecd"},
		{"caf\xc3", "café"},    // truncated sequence vs valid rune
		{"x\uFFFDy", "x\xffy"}, // literal U+FFFD vs an invalid byte
		{"\x00", "\x00a"},      // a zero unit must not vanish
		{"a", "a\x00"},         // short grams differ by unit count
		{"é", "日本"},            // 1–2-rune values
		{"ab", "ab"},
		{long, long + "\xe2\x82"}, // >64 runes, trailing invalid bytes
		{long, strings.ToUpper(long)},
		{"", "abc"},
		{"", ""},
	}
	for _, s := range seeds {
		for q := uint8(0); q < 4; q++ {
			f.Add(s.a, s.b, q, false)
			f.Add(s.a, s.b, q, true)
		}
	}
	f.Fuzz(func(t *testing.T, a, b string, q uint8, fold bool) {
		fn := QGramJaccard{Q: 1 + int(q%4), Fold: fold}
		want := oracleQGramJaccard(fn, a, b)
		if got := fn.Sim(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s fold=%t: Sim(%q, %q) = %v, oracle %v", fn.Name(), fold, a, b, got, want)
		}
		pa, pb := fn.Prep(a), fn.Prep(b)
		if got := fn.SimPrepped(pa, pb); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s fold=%t: SimPrepped(%q, %q) = %v, oracle %v", fn.Name(), fold, a, b, got, want)
		}
		if bound := fn.SimBound(pa, pb); !(want <= bound) || bound != fn.SimBound(pb, pa) {
			t.Fatalf("%s fold=%t: SimBound(%q, %q) = %v, not a symmetric bound on %v", fn.Name(), fold, a, b, bound, want)
		}
	})
}

// FuzzBindQGram differentially checks the bound q-gram matcher against the
// string-set oracle for Q in {1, 2, 3, 4} with and without folding. One
// closure scores b, then a longer value, then b again, so the scratch
// table's generation stamps and growth both run between calls.
func FuzzBindQGram(f *testing.F) {
	long := strings.Repeat("abcdefgh", 9) // 72 runes
	seeds := []struct{ a, b string }{
		{"\xff", "\xff"},
		{"AB\xffCD", "ab\uFFFDcd"}, // a folded invalid byte is U+FFFD
		{"caf\xc3", "CAFÉ"},
		{"ÀÉ", "àé"},
		{"İstanbul", "istanbul"},
		{"ΣΑΣ", "σας"},
		{"", "abc"},
		{"abc", ""},
		{"", ""},
		{"abcd", "a"}, // b shorter than q
		{"ab", "AB"},  // both shorter than q
		{long, strings.ToUpper(long) + "\xe2\x82"},
	}
	for _, s := range seeds {
		for q := uint8(0); q < 4; q++ {
			f.Add(s.a, s.b, q, false)
			f.Add(s.a, s.b, q, true)
		}
	}
	f.Fuzz(func(t *testing.T, a, b string, q uint8, fold bool) {
		fn := QGramJaccard{Q: 1 + int(q%4), Fold: fold}
		bound := Bind(fn, a)
		for _, v := range []string{b, b + long + b, a, b} {
			want := oracleQGramJaccard(fn, a, v)
			if got := bound(v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s fold=%t: Bind(%q)(%q) = %v, oracle %v", fn.Name(), fold, a, v, got, want)
			}
		}
	})
}
