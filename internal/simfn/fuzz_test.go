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
// string-set oracle for Q in {1, 2, 3, 4} with and without folding.
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
		if got := fn.SimPrepped(fn.Prep(a), fn.Prep(b)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s fold=%t: SimPrepped(%q, %q) = %v, oracle %v", fn.Name(), fold, a, b, got, want)
		}
	})
}
