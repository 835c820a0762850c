package simfn

import (
	"math"
	"slices"
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

// flipCase returns s with the case of every ASCII letter at a byte offset
// i whose bit i%64 of mask is set swapped.
func flipCase(s string, mask uint64) string {
	b := []byte(s)
	for i, c := range b {
		if l := c | 0x20; 'a' <= l && l <= 'z' && mask>>(i%64)&1 == 1 {
			b[i] = c ^ 0x20
		}
	}
	return string(b)
}

// FuzzEquivalence checks Equivalence for folding QGramJaccard: every
// value is equivalent to itself and to a copy with ASCII letter cases
// flipped, and equivalent values a and c have equal packed folded grams
// for q = 1–3 and bit-equal bound scores, Bind(f, x)(a) against
// Bind(f, x)(c) and Bind(f, a)(x) against Bind(f, c)(x), for q = 1–4.
func FuzzEquivalence(f *testing.F) {
	seeds := []struct{ a, b, x string }{
		{"Hotel Bel-Air", "HOTEL bel-air", "hotel bel air"},
		{"dsc-w830", "DSC-W830", "dsc w830"},
		{"ab\xff", "AB\xff", "ab\uFFFD"},
		{"caf\xc3", "CAF\xc3", "café"},
		{"\u212Aelvin", "\u212AELVIN", "kelvin"},
		{"ǅemal", "Ǆemal", "ǆemal"},
		{"a\tb", "A B", "a b"},
		{"", "", "x"},
		{"ab", "Ab", ""},
	}
	for _, s := range seeds {
		f.Add(s.a, s.b, s.x, uint64(0))
		f.Add(s.a, s.b, s.x, ^uint64(0))
		f.Add(s.a, s.b, s.x, uint64(0x5555555555555555))
	}
	same := Equivalence(QGramJaccard{Q: 3, Fold: true})
	f.Fuzz(func(t *testing.T, a, b, x string, mask uint64) {
		if !same(a, a) {
			t.Fatalf("%q is not equivalent to itself", a)
		}
		flipped := flipCase(a, mask)
		if !same(a, flipped) {
			t.Fatalf("%q is not equivalent to its case flip %q", a, flipped)
		}
		for _, c := range []string{b, flipped} {
			if !same(a, c) {
				continue
			}
			for q := 1; q <= 4; q++ {
				if q <= MaxPackedQ {
					if ka, kc := AppendPackedQGrams(nil, a, q, true), AppendPackedQGrams(nil, c, q, true); !slices.Equal(ka, kc) {
						t.Fatalf("q=%d: %q and %q are equivalent but pack to %x and %x", q, a, c, ka, kc)
					}
				}
				fn := QGramJaccard{Q: q, Fold: true}
				if sa, sc := Bind(fn, x)(a), Bind(fn, x)(c); math.Float64bits(sa) != math.Float64bits(sc) {
					t.Fatalf("%s: Bind(%q) scores equivalent %q and %q as %v and %v", fn.Name(), x, a, c, sa, sc)
				}
				if sa, sc := Bind(fn, a)(x), Bind(fn, c)(x); math.Float64bits(sa) != math.Float64bits(sc) {
					t.Fatalf("%s: equivalent Bind(%q) and Bind(%q) score %q as %v and %v", fn.Name(), a, c, x, sa, sc)
				}
			}
		}
	})
}
