package perturb

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// dropTokenFields, swapTokensFields and titleCaseFields are the
// strings.Fields/Join forms of DropToken, SwapTokens and TitleCase, kept
// as the oracles the single-pass forms are tested against.
func dropTokenFields(s string, r *rand.Rand) string {
	t := strings.Fields(s)
	if len(t) < 2 {
		return s
	}
	i := r.Intn(len(t))
	return strings.Join(append(t[:i:i], t[i+1:]...), " ")
}

func swapTokensFields(s string, r *rand.Rand) string {
	t := strings.Fields(s)
	if len(t) < 2 {
		return s
	}
	i := r.Intn(len(t) - 1)
	t[i], t[i+1] = t[i+1], t[i]
	return strings.Join(t, " ")
}

func titleCaseFields(s string, _ *rand.Rand) string {
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

// FuzzTokenOps checks the single-pass token ops against their
// strings.Fields oracles, and LowerCase against strings.ToLower: from
// equal seeds both give the same output and leave the generator at the
// same next draw.
func FuzzTokenOps(f *testing.F) {
	for _, s := range []string{
		"", "solo", "one two three", "  lead", "trail  ", "  a   b\t\n c  ", "\t\n",
		"ab\xff cd", "\xff\xfe x", "caf\xc3 bar", "\x85 x\x85y", // invalid bytes never separate
		"a\u0085b c", "a b c", "東京　タワー x", // Unicode spaces do
		"ǆemal ǆ", "ıi ſs", "éa Ée",
	} {
		for seed := int64(0); seed < 3; seed++ {
			f.Add(s, seed)
		}
	}
	ops := []struct {
		name       string
		fast, slow Op
	}{
		{"TitleCase", TitleCase, titleCaseFields},
		{"DropToken", DropToken, dropTokenFields},
		{"SwapTokens", SwapTokens, swapTokensFields},
		{"LowerCase", LowerCase, func(s string, _ *rand.Rand) string { return strings.ToLower(s) }},
	}
	f.Fuzz(func(t *testing.T, s string, seed int64) {
		for _, op := range ops {
			rf, rs := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, want := op.fast(s, rf), op.slow(s, rs)
			if got != want {
				t.Fatalf("%s(%q) seed %d = %q, Fields oracle %q", op.name, s, seed, got, want)
			}
			if a, b := rf.Int63(), rs.Int63(); a != b {
				t.Fatalf("%s(%q) seed %d: next draw %d, oracle's %d", op.name, s, seed, a, b)
			}
		}
	})
}

// TestASCIISpaceTable pins the token splitter's ASCII table to
// unicode.IsSpace.
func TestASCIISpaceTable(t *testing.T) {
	for c := rune(0); c < utf8.RuneSelf; c++ {
		if asciiSpace[c] != unicode.IsSpace(c) {
			t.Errorf("asciiSpace[%q] = %v, unicode.IsSpace %v", c, asciiSpace[c], unicode.IsSpace(c))
		}
	}
}

var tokenValues = []string{
	"Arnie Morton's of Chicago", "435 S. La Cienega Blvd.", "Los Angeles",
	"american", "12224 Ventura Blvd.", "Hotel Bel-Air",
	"effective query processing in distributed databases",
}

// TestTitleCaseTitledAllocFree checks that TitleCase hands back input it
// would rebuild unchanged, without allocating, and still rebuilds input
// one byte away from titled as its Fields oracle does.
func TestTitleCaseTitledAllocFree(t *testing.T) {
	for _, s := range []string{"", "Hotel Bel-Air", "435 S. La Cienega Blvd.", "Ǆemal", "東京 タワー", "Crème Brûlée", "`Quoted` {Braced}"} {
		if got := TitleCase(s, nil); got != s {
			t.Errorf("TitleCase(%q) = %q, want it unchanged", s, got)
		}
		if allocs := testing.AllocsPerRun(20, func() { sinkWalk = TitleCase(s, nil) }); allocs != 0 {
			t.Errorf("TitleCase(%q) allocates %v times, want 0", s, allocs)
		}
	}
	for _, s := range []string{
		" Hotel", "Hotel ", "Hotel  Bel", "Hotel\tBel", "Hotel\u00a0Bel", "hotel Bel", "Hotel bel",
		"ǅemal", "ıi", "Ab\xff", "\xff", " ", "Crème brûlée", "a", "zoo", "Zoo zoo",
	} {
		if got, want := TitleCase(s, nil), titleCaseFields(s, nil); got != want {
			t.Errorf("TitleCase(%q) = %q, Fields oracle %q", s, got, want)
		}
	}
}

// BenchmarkTokenOps runs each token op over restaurant- and
// bibliography-style values, and TitleCase also over the same values
// already titled, which it hands back without rebuilding.
func BenchmarkTokenOps(b *testing.B) {
	titled := make([]string, len(tokenValues))
	for i, v := range tokenValues {
		titled[i] = titleCaseFields(v, nil)
	}
	for _, op := range []struct {
		name   string
		fn     Op
		values []string
	}{
		{"TitleCase", TitleCase, tokenValues}, {"TitleCaseTitled", TitleCase, titled},
		{"DropToken", DropToken, tokenValues}, {"SwapTokens", SwapTokens, tokenValues},
	} {
		b.Run(op.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkWalk = op.fn(op.values[i%len(op.values)], r)
			}
		})
	}
}
