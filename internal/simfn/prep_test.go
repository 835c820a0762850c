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
// scratch table has grown to fit, a call allocates nothing, on ASCII input
// with capitals (the folding path), non-ASCII input, a value shorter than
// q and the empty value.
func TestBindQGramAllocFree(t *testing.T) {
	bound := Bind(QGramJaccard{Q: 3, Fold: true}, "Arnie Morton's of Chicago")
	values := []string{"ARNIE Mortons of CHICAGO Steakhouse", "Crème Brûlée Café", "ab", "", "Arnie Morton's of Chicago"}
	for _, b := range values {
		bound(b)
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() { bound(values[i%len(values)]); i++ }); allocs != 0 {
		t.Errorf("bound q-gram call allocates %v times, want 0", allocs)
	}
}

// TestQGramMatcherGenerationWrap runs the matcher across a wrap of its
// generation counter, which lives in 31 bits: no tag of a call before the
// wrap may read as live after it, on a slot of a's grams or on one
// outside a.
func TestQGramMatcherGenerationWrap(t *testing.T) {
	const a = "Hotel Bel-Air"
	f := QGramJaccard{Q: 3, Fold: true}
	m := newQGramMatcher(f, a)
	// Call 0 runs at generation 1 and counts the grams of "Hotel Bel Air"
	// on the slots of a's grams and on slots outside a, for the grams a
	// lacks ("l a", " ai"). Call 2 wraps the counter back to generation 1
	// and scores the same value, so a count or tag of call 0 that survived
	// the wrap would read as live and hide a gram from it.
	for i, c := range []struct {
		b   string
		gen uint32
	}{{"Hotel Bel Air", 1}, {"Campanile", 1<<31 - 1}, {"Hotel Bel Air", 1}, {"Cafe Bizou", 2}, {"hotel bel-air", 3}} {
		if i == 1 {
			m.gen = 1<<31 - 2
		}
		if got, want := m.Start(c.b), f.Sim(a, c.b); got != want {
			t.Errorf("call %d, gen %d: Start(%q) = %v, want %v", i, m.gen, c.b, got, want)
		}
		if m.gen != c.gen {
			t.Fatalf("call %d ran at gen %d, want %d", i, m.gen, c.gen)
		}
	}
}

// TestEquivalence pins which values Equivalence calls the same: ASCII
// letter case alone under a folding QGramJaccard, and nothing but string
// equality (a nil test) for every other Func.
func TestEquivalence(t *testing.T) {
	for _, f := range []Func{QGramJaccard{Q: 3}, EditSim{}, TokenJaccard{}, Exact{}, Numeric{Max: 1}} {
		if Equivalence(f) != nil {
			t.Errorf("Equivalence(%s) is not nil", f.Name())
		}
	}
	same := Equivalence(QGramJaccard{Q: 3, Fold: true})
	for _, tc := range []struct {
		a, b string
		want bool
	}{
		{"", "", true},
		{"Hotel Bel-Air", "HOTEL bel-air", true},
		{"dsc-w830", "DSC-W830", true},
		{"crème", "CRèME", true},
		{"ab", "abc", false},
		{"@[", "`{", false},    // bit 5 alone, not letters
		{"a b", "a\tb", false}, // a tab for a space
		{"ǅ", "Ǆ", false},      // a non-ASCII case pair
		{"k", "\u212A", false}, // the Kelvin sign folds to k but is longer
		{"ab\xff", "ab\uFFFD", false},
		{"\xe9", "\xc9", false}, // bytes above ASCII that differ in bit 5
	} {
		if got := same(tc.a, tc.b); got != tc.want {
			t.Errorf("same(%q, %q) = %t, want %t", tc.a, tc.b, got, tc.want)
		}
	}
}
