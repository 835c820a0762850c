package textsynth

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"serd/internal/datagen"
	"serd/internal/simfn"
)

func corpusFixture(t *testing.T) []string {
	t.Helper()
	gen, err := datagen.Scholar(datagen.Config{Seed: 1, SizeA: 20, SizeB: 20, Matches: 5, BackgroundPerColumn: 120})
	if err != nil {
		t.Fatal(err)
	}
	return gen.Background["title"]
}

func TestNewRuleSynthesizerValidation(t *testing.T) {
	if _, err := NewRuleSynthesizer(nil, []string{"a"}); err == nil {
		t.Error("nil sim accepted")
	}
	if _, err := NewRuleSynthesizer(simfn.QGramJaccard{}, nil); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestRuleSynthesizerHitsTargets(t *testing.T) {
	corpus := corpusFixture(t)
	rs, err := NewRuleSynthesizer(simfn.QGramJaccard{Q: 3, Fold: true}, corpus)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	s := "Adaptive Query Optimization for Relational Databases"
	for _, target := range []float64{0.95, 0.7, 0.5, 0.3, 0.05} {
		got, sim := rs.Synthesize(s, target, r)
		if got == "" {
			t.Fatalf("empty synthesis for target %v", target)
		}
		if math.Abs(sim-target) > 0.2 {
			t.Errorf("target %v: achieved %v with %q", target, sim, got)
		}
	}
}

func TestRuleSynthesizerMatchesTableIExamples(t *testing.T) {
	// Table I's contract: input sim and achieved sim' differ by only a few
	// hundredths for representative targets.
	corpus := corpusFixture(t)
	rs, err := NewRuleSynthesizer(simfn.QGramJaccard{Q: 3, Fold: true}, corpus)
	if err != nil {
		t.Fatal(err)
	}
	rs.Candidates = 20
	r := rand.New(rand.NewSource(3))
	s := "Forest Family Restaurant"
	_, sim := rs.Synthesize(s, 0.73, r)
	if math.Abs(sim-0.73) > 0.12 {
		t.Errorf("Table I scenario: target 0.73, achieved %v", sim)
	}
}

func TestBucketing(t *testing.T) {
	if Bucket(0, 10) != 0 || Bucket(0.999, 10) != 9 || Bucket(1, 10) != 9 {
		t.Error("bucket boundaries wrong")
	}
	if Bucket(0.55, 10) != 5 {
		t.Errorf("Bucket(0.55) = %d", Bucket(0.55, 10))
	}
	for _, c := range []struct {
		sim  float64
		want int
	}{{-0.1, 0}, {math.Inf(-1), 0}, {math.NaN(), 0}, {math.Inf(1), 9}} {
		if got := Bucket(c.sim, 10); got != c.want {
			t.Errorf("Bucket(%v, 10) = %d, want %d", c.sim, got, c.want)
		}
	}
	if c := BucketCenter(5, 10); math.Abs(c-0.55) > 1e-12 {
		t.Errorf("BucketCenter = %v", c)
	}
}

func TestBuildPairsBucketsAreConsistent(t *testing.T) {
	corpus := corpusFixture(t)
	f := simfn.QGramJaccard{Q: 3, Fold: true}
	r := rand.New(rand.NewSource(4))
	sets := BuildPairs(corpus, f, 10, 20, r)
	if len(sets) != 10 {
		t.Fatalf("got %d buckets", len(sets))
	}
	nonEmpty := 0
	for bk, pairs := range sets {
		if len(pairs) > 0 {
			nonEmpty++
		}
		for _, p := range pairs {
			if got := f.Sim(p.S, p.T); math.Abs(got-p.Sim) > 1e-12 {
				t.Fatalf("recorded sim %v != recomputed %v", p.Sim, got)
			}
			if Bucket(p.Sim, 10) != bk {
				t.Fatalf("pair with sim %v filed in bucket %d", p.Sim, bk)
			}
		}
	}
	if nonEmpty < 6 {
		t.Errorf("only %d/10 buckets populated", nonEmpty)
	}
}

func TestBuildPairsSmallCorpus(t *testing.T) {
	f := simfn.QGramJaccard{Q: 3}
	r := rand.New(rand.NewSource(5))
	sets := BuildPairs([]string{"only"}, f, 10, 5, r)
	for _, s := range sets {
		if len(s) != 0 {
			t.Error("single-string corpus cannot produce pairs")
		}
	}
}

func TestTrainTransformerValidation(t *testing.T) {
	if _, err := TrainTransformer(context.Background(), nil, simfn.QGramJaccard{}, TransformerOptions{}); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, err := TrainTransformer(context.Background(), []string{"a", "b"}, nil, TransformerOptions{}); err == nil {
		t.Error("nil sim accepted")
	}
}

func TestRepairTokensSnapsToVocabulary(t *testing.T) {
	rs, err := NewRuleSynthesizer(simfn.QGramJaccard{Q: 3, Fold: true},
		[]string{"forest family restaurant", "golden dragon kitchen"})
	if err != nil {
		t.Fatal(err)
	}
	got := rs.repairTokens("Forrest Famly restauran")
	if got != "Forest Family restaurant" {
		t.Errorf("repairTokens = %q", got)
	}
	// In-vocabulary and short tokens are untouched; unsnappable ones stay.
	if got := rs.repairTokens("golden zz qqqqqqqqqqqq"); got != "golden zz qqqqqqqqqqqq" {
		t.Errorf("repairTokens should leave unsnappable tokens: %q", got)
	}
	rs.DisableRepair = true
	if got := rs.repairTokens("Forrest"); got != "Forrest" {
		t.Errorf("DisableRepair ignored: %q", got)
	}
	// Lengths count runes, not bytes: "brle" is two edits from the
	// 6-rune, 8-byte "brûlée", and a 2-rune CJK token is too short to snap.
	rs, err = NewRuleSynthesizer(simfn.QGramJaccard{Q: 3, Fold: true}, []string{"crème brûlée", "東京 タワー"})
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.repairTokens("Brle"); got != "Brûlée" {
		t.Errorf("repairTokens(%q) = %q, want %q", "Brle", got, "Brûlée")
	}
	if got := rs.repairTokens("東都"); got != "東都" {
		t.Errorf("repairTokens must keep a 2-rune token: %q", got)
	}
	// A synthesizer built as a struct literal has no vocabulary and
	// repairs nothing.
	lit := &RuleSynthesizer{Sim: simfn.QGramJaccard{Q: 3}, Corpus: []string{"forest"}}
	if got := lit.repairTokens("Forrest"); got != "Forrest" {
		t.Errorf("struct-literal synthesizer repaired %q", got)
	}
}

func TestSynthesizedHighTargetStaysInVocabulary(t *testing.T) {
	corpus := corpusFixture(t)
	rs, err := NewRuleSynthesizer(simfn.QGramJaccard{Q: 3, Fold: true}, corpus)
	if err != nil {
		t.Fatal(err)
	}
	vocab := map[string]bool{}
	for _, s := range corpus {
		for _, tok := range strings.Fields(strings.ToLower(s)) {
			vocab[tok] = true
		}
	}
	r := rand.New(rand.NewSource(31))
	src := corpus[1]
	oov := 0
	total := 0
	for i := 0; i < 20; i++ {
		out, _ := rs.Synthesize(src, 0.85, r)
		for _, tok := range strings.Fields(strings.ToLower(out)) {
			total++
			if !vocab[tok] && len(tok) >= 3 {
				oov++
			}
		}
	}
	if total == 0 {
		t.Fatal("no tokens synthesized")
	}
	if frac := float64(oov) / float64(total); frac > 0.25 {
		t.Errorf("%.0f%% of synthesized tokens are out of vocabulary", 100*frac)
	}
}

// BenchmarkRuleSynthesize is one S2 string synthesis: Restaurant names
// and addresses, targets swept across [0, 1], the default candidate set,
// edit walks and token repair.
func BenchmarkRuleSynthesize(b *testing.B) {
	gen, err := datagen.Restaurant(datagen.Config{Seed: 1, SizeA: 40, SizeB: 40, Matches: 10})
	if err != nil {
		b.Fatal(err)
	}
	benchRuleSynthesize(b, gen, "name", "address")
}

// BenchmarkRuleSynthesizeProducts is BenchmarkRuleSynthesize on
// Walmart-Amazon values: one-token model numbers, where many walk edits
// are no-ops, and long titles and descriptions, whose out-of-vocabulary
// tokens scan the whole vocabulary in token repair.
func BenchmarkRuleSynthesizeProducts(b *testing.B) {
	gen, err := datagen.Products(datagen.Config{Seed: 1, SizeA: 40, SizeB: 40, Matches: 10})
	if err != nil {
		b.Fatal(err)
	}
	benchRuleSynthesize(b, gen, "modelno", "title", "descr")
}

// benchRuleSynthesize synthesizes the first 8 background values of each
// column, cycling through them and through targets 0, 0.1, …, 1.
func benchRuleSynthesize(b *testing.B, gen *datagen.Generated, cols ...string) {
	values, synths := ruleSynthesizeInputs(b, gen, cols...)
	r := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := values[i%len(values)]
		sinkSynth, _ = synths[v].Synthesize(v, float64(i%11)/10, r)
	}
}

// ruleSynthesizeInputs returns the first 8 background values of each
// column and a synthesizer over each value's column, under 3-gram Jaccard
// with folding.
func ruleSynthesizeInputs(tb testing.TB, gen *datagen.Generated, cols ...string) ([]string, map[string]*RuleSynthesizer) {
	sim := simfn.QGramJaccard{Q: 3, Fold: true}
	var values []string
	synths := map[string]*RuleSynthesizer{}
	for _, col := range cols {
		rs, err := NewRuleSynthesizer(sim, gen.Background[col])
		if err != nil {
			tb.Fatal(err)
		}
		for _, v := range gen.Background[col][:8] {
			values = append(values, v)
			synths[v] = rs
		}
	}
	return values, synths
}

// TestRuleSynthesizeAllocs pins the allocations of one Synthesize call on
// the BenchmarkRuleSynthesize and BenchmarkRuleSynthesizeProducts inputs
// at 40 or fewer: the edit walk allocates nothing per step, so an op or
// scorer that starts to fails here rather than in a benchmark.
func TestRuleSynthesizeAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(datagen.Config) (*datagen.Generated, error)
		cols []string
	}{
		{"Restaurant", datagen.Restaurant, []string{"name", "address"}},
		{"Products", datagen.Products, []string{"modelno", "title", "descr"}},
	} {
		gen, err := tc.gen(datagen.Config{Seed: 1, SizeA: 40, SizeB: 40, Matches: 10})
		if err != nil {
			t.Fatal(err)
		}
		values, synths := ruleSynthesizeInputs(t, gen, tc.cols...)
		r := rand.New(rand.NewSource(3))
		calls := 0
		allocs := testing.AllocsPerRun(1, func() {
			for _, v := range values {
				for ti := 0; ti <= 10; ti++ {
					sinkSynth, _ = synths[v].Synthesize(v, float64(ti)/10, r)
					calls++
				}
			}
		})
		// AllocsPerRun runs the function once to warm up, then once measured.
		if perCall := allocs / float64(calls/2); perCall > 40 {
			t.Errorf("%s: %.1f allocations per Synthesize call, want ≤ 40", tc.name, perCall)
		}
	}
}

var sinkSynth string
