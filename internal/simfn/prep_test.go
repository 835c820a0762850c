package simfn

import (
	"math/rand"
	"slices"
	"testing"
)

// prepCases stresses the sorted-set representation: unicode (multi-byte
// runes), strings shorter than q, repeats, empty strings, whitespace.
var prepCases = []string{
	"", " ", "a", "ab", "abc", "abcabc", "hello world", "Hello World",
	"résumé café", "日本語テキスト", "a b\tc\nd", "   spaced   out   ",
	"aaaaaaa", "the quick brown fox", "ñ", "née naïve",
}

// TestPreprocessorBitEquality is the Preprocessor contract:
// SimPrepped(Prep(a), Prep(b)) must equal Sim(a, b) bit for bit.
func TestPreprocessorBitEquality(t *testing.T) {
	fns := []Func{
		QGramJaccard{},
		QGramJaccard{Q: 2},
		QGramJaccard{Q: 3, Fold: true},
		QGramJaccard{Q: 4},
		TokenJaccard{},
	}
	for _, f := range fns {
		pp, ok := f.(Preprocessor)
		if !ok {
			t.Fatalf("%s does not implement Preprocessor", f.Name())
		}
		for _, a := range prepCases {
			pa := pp.Prep(a)
			for _, b := range prepCases {
				want := f.Sim(a, b)
				if got := pp.SimPrepped(pa, pp.Prep(b)); got != want {
					t.Errorf("%s: SimPrepped(%q, %q) = %v, Sim = %v", f.Name(), a, b, got, want)
				}
			}
		}
	}
}

func TestBindMatchesSim(t *testing.T) {
	qg := QGramJaccard{Q: 3, Fold: true}
	for _, a := range prepCases {
		bound := Bind(qg, a)
		for _, b := range prepCases {
			if got, want := bound(b), qg.Sim(a, b); got != want {
				t.Errorf("Bind(%q)(%q) = %v, Sim = %v", a, b, got, want)
			}
		}
	}
	// Non-preprocessor funcs take the closure fallback.
	ex := Exact{}
	bound := Bind(ex, "x")
	if bound("x") != 1 || bound("y") != 0 {
		t.Error("Bind fallback broke Exact semantics")
	}
}

// TestSortedGramsMatchQGramsMap cross-checks the hot-path sorted
// representation against the exported QGrams map on random strings.
func TestSortedGramsMatchQGramsMap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	alphabet := []rune("abcdé日 ")
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(12)
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = alphabet[r.Intn(len(alphabet))]
		}
		s := string(rs)
		for q := 2; q <= 4; q++ {
			want := QGrams(s, q)
			got := sortedQGrams(s, q)
			if len(got) != len(want) {
				t.Fatalf("q=%d %q: %d sorted grams vs %d map grams (%v vs %v)", q, s, len(got), len(want), got, want)
			}
			for _, g := range got {
				if _, ok := want[g]; !ok {
					t.Fatalf("q=%d %q: sorted gram %q missing from map", q, s, g)
				}
			}
		}
	}
}

// TestAppendQGramsPositions pins AppendQGrams' position-order output:
// repeats kept, multi-byte runes and invalid bytes one unit each, a value
// shorter than q one gram, and dst's existing entries left in place.
func TestAppendQGramsPositions(t *testing.T) {
	for _, tc := range []struct {
		s    string
		q    int
		want []string
	}{
		{"", 3, nil},
		{"ab", 3, []string{"ab"}},
		{"abc", 3, []string{"abc"}},
		{"abab", 2, []string{"ab", "ba", "ab"}},
		{"aaaa", 1, []string{"a", "a", "a", "a"}},
		{"né日x", 2, []string{"né", "é日", "日x"}},
		{"a\xffb\xfe", 2, []string{"a\xff", "\xffb", "b\xfe"}},
		{"\xff\xfe", 3, []string{"\xff\xfe"}},
	} {
		got := AppendQGrams([]string{"kept"}, tc.s, tc.q)
		if want := append([]string{"kept"}, tc.want...); !slices.Equal(got, want) {
			t.Errorf("AppendQGrams(%q, %d) = %q, want %q", tc.s, tc.q, got[1:], tc.want)
		}
	}
}

// TestBindQGramAllocFree pins the bound matcher's steady state: once its
// scratch table has grown to fit, a call on ASCII input with capitals (the
// folding path) allocates nothing.
func TestBindQGramAllocFree(t *testing.T) {
	bound := Bind(QGramJaccard{Q: 3, Fold: true}, "Arnie Morton's of Chicago")
	b := "ARNIE Mortons of CHICAGO Steakhouse"
	bound(b)
	if allocs := testing.AllocsPerRun(100, func() { bound(b) }); allocs != 0 {
		t.Errorf("bound q-gram call allocates %v times, want 0", allocs)
	}
}

// TestQGramMatcherGenerationWrap runs the matcher across a wrap of its
// scratch table's generation counter: stale stamps must not read as live.
func TestQGramMatcherGenerationWrap(t *testing.T) {
	f := QGramJaccard{Q: 3, Fold: true}
	m := newQGramMatcher(f, "Hotel Bel-Air")
	m.sim("Hotel Bel Air")
	m.gen = ^uint32(0) - 1
	for _, b := range []string{"Hotel Bel-Air", "Cafe Bizou", "hotel bel-air", "Campanile"} {
		if got, want := m.sim(b), f.Sim("Hotel Bel-Air", b); got != want {
			t.Errorf("gen %d: sim(%q) = %v, want %v", m.gen, b, got, want)
		}
	}
}
