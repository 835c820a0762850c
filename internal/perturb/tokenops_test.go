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
// strings.Fields oracles: from equal seeds both give the same output and
// leave the generator at the same next draw.
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

// BenchmarkTokenOps runs each token op over restaurant- and
// bibliography-style values.
func BenchmarkTokenOps(b *testing.B) {
	for _, op := range []struct {
		name string
		fn   Op
	}{{"TitleCase", TitleCase}, {"DropToken", DropToken}, {"SwapTokens", SwapTokens}} {
		b.Run(op.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkWalk = op.fn(tokenValues[i%len(tokenValues)], r)
			}
		})
	}
}
