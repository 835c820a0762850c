package perturb

import (
	"math/rand"
	"strings"
	"testing"

	"serd/internal/simfn"
)

func TestTypoChangesOneLetter(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	s := "hello world"
	diffs := 0
	for i := 0; i < 50; i++ {
		out := Typo(s, r)
		if len(out) != len(s) {
			t.Fatalf("Typo changed length: %q", out)
		}
		d := 0
		for j := range s {
			if s[j] != out[j] {
				d++
			}
		}
		if d > 1 {
			t.Fatalf("Typo changed %d characters", d)
		}
		diffs += d
	}
	if diffs == 0 {
		t.Error("Typo never changed anything across 50 tries")
	}
}

func TestTypoEmptyAndNonLetter(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	if Typo("", r) != "" {
		t.Error("Typo on empty string")
	}
	if Typo("1234 !!", r) != "1234 !!" {
		t.Error("Typo should leave non-letter strings alone")
	}
}

func TestDeleteChar(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	out := DeleteChar("abc", r)
	if len(out) != 2 {
		t.Errorf("DeleteChar(%q) = %q", "abc", out)
	}
	if DeleteChar("", r) != "" {
		t.Error("DeleteChar on empty string")
	}
}

func TestDuplicateChar(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	out := DuplicateChar("ab", r)
	if len(out) != 3 {
		t.Errorf("DuplicateChar(%q) = %q", "ab", out)
	}
}

func TestDropToken(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	out := DropToken("one two three", r)
	if len(strings.Fields(out)) != 2 {
		t.Errorf("DropToken = %q", out)
	}
	if DropToken("single", r) != "single" {
		t.Error("DropToken must not drop the only token")
	}
}

func TestSwapTokens(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	out := SwapTokens("a b", r)
	if out != "b a" {
		t.Errorf("SwapTokens = %q", out)
	}
	if SwapTokens("solo", r) != "solo" {
		t.Error("SwapTokens on single token")
	}
}

func TestCaseOps(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	if LowerCase("AbC dEf", r) != "abc def" {
		t.Error("LowerCase")
	}
	if TitleCase("hello world", r) != "Hello World" {
		t.Error("TitleCase")
	}
}

func TestAbbreviateFirstNames(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	got := AbbreviateFirstNames("Donald Kossmann, Alfons Kemper", r)
	if got != "D. Kossmann, A. Kemper" {
		t.Errorf("AbbreviateFirstNames = %q", got)
	}
	// Middle names abbreviate too.
	got = AbbreviateFirstNames("Christian S. Jensen", r)
	if got != "C. S. Jensen" {
		t.Errorf("AbbreviateFirstNames = %q", got)
	}
	if AbbreviateFirstNames("Cher", r) != "Cher" {
		t.Error("single-token names must survive")
	}
}

func TestReorderNamesPreservesSet(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	in := "Alice A, Bob B, Carol C"
	out := ReorderNames(in, r)
	want := map[string]bool{"Alice A": true, "Bob B": true, "Carol C": true}
	for _, n := range strings.Split(out, ", ") {
		if !want[n] {
			t.Fatalf("unexpected name %q in %q", n, out)
		}
	}
}

func TestApplyComposes(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	s := "The Quick Brown Fox Jumps Over The Lazy Dog"
	out := Apply(s, Heavy(), 5, r)
	if out == "" {
		t.Error("Apply produced empty string")
	}
}

func TestTowardSimilarityHitsBuckets(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := simfn.QGramJaccard{Q: 3}
	s := "Adaptable Query Optimization and Evaluation in Temporal Middleware"
	for _, target := range []float64{0.9, 0.7, 0.5, 0.3} {
		got, sim := new(Walker).Walk(s, target, 0.05, simfn.FuncScorer(simfn.Bind(f, s), nil), 400, r)
		if got == "" {
			t.Fatalf("empty output for target %v", target)
		}
		if d := sim - target; d > 0.15 || d < -0.15 {
			t.Errorf("target %v: achieved %v (value %q)", target, sim, got)
		}
	}
}

func TestTowardSimilarityIdentityTarget(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	f := simfn.QGramJaccard{Q: 3}
	got, sim := new(Walker).Walk("hello world", 1.0, 0.01, simfn.FuncScorer(simfn.Bind(f, "hello world"), nil), 10, r)
	if got != "hello world" || sim != 1 {
		t.Errorf("target 1.0 should return the input unchanged, got %q (%v)", got, sim)
	}
}

var towardValues = []string{
	"Arnie Morton's of Chicago", "435 S. La Cienega Blvd.", "Art's Delicatessen",
	"12224 Ventura Blvd.", "Hotel Bel-Air", "701 Stone Canyon Rd.",
}

// BenchmarkTowardSimilarity is the edit walk scoring every step from
// scratch: perturb restaurant-style values toward targets across [0, 1]
// over a FuncScorer of bound 3-gram Jaccard.
func BenchmarkTowardSimilarity(b *testing.B) {
	f := simfn.QGramJaccard{Q: 3, Fold: true}
	bound, same := make([]func(string) float64, len(towardValues)), simfn.Equivalence(f)
	for i, v := range towardValues {
		bound[i] = simfn.Bind(f, v)
	}
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(towardValues)
		sinkWalk, _ = new(Walker).Walk(towardValues[k], float64(i%11)/10, 0.02, simfn.FuncScorer(bound[k], same), 200, r)
	}
}

var sinkWalk string
