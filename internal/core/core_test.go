package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"serd/internal/blocking"
	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/gmm"
	"serd/internal/telemetry"
	"serd/internal/textsynth"
)

// fixture builds a scaled scholar dataset plus rule synthesizers for its
// textual columns.
func fixture(t *testing.T, sizeA, sizeB, matches int) (*datagen.Generated, map[string]textsynth.Synthesizer) {
	t.Helper()
	gen, err := datagen.Scholar(datagen.Config{Seed: 1, SizeA: sizeA, SizeB: sizeB, Matches: matches, BackgroundPerColumn: 80})
	if err != nil {
		t.Fatal(err)
	}
	return gen, ruleSynths(t, gen)
}

func ruleSynths(t *testing.T, gen *datagen.Generated) map[string]textsynth.Synthesizer {
	t.Helper()
	out := make(map[string]textsynth.Synthesizer)
	for ci, col := range gen.ER.Schema().Cols {
		if col.Kind != dataset.Textual {
			continue
		}
		_ = ci
		rs, err := textsynth.NewRuleSynthesizer(col.Sim, gen.Background[col.Name])
		if err != nil {
			t.Fatal(err)
		}
		rs.Candidates = 6
		rs.MaxSteps = 120
		out[col.Name] = rs
	}
	return out
}

func TestFitGMMSeparatesMAndN(t *testing.T) {
	gen, _ := fixture(t, 80, 80, 40)
	j, err := generator.FitGMM(context.Background(), gen.ER, generator.FitOptions{Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	// Matching vectors must score as matches, sampled non-matching as not.
	r := rand.New(rand.NewSource(3))
	for _, x := range gen.ER.MatchingVectors()[:20] {
		if !j.IsMatch(x) {
			t.Errorf("matching vector %v labeled non-matching", x)
		}
	}
	miss := 0
	xn := gen.ER.NonMatchingVectors(50, r)
	for _, x := range xn {
		if j.IsMatch(x) {
			miss++
		}
	}
	if miss > 2 {
		t.Errorf("%d/50 non-matching vectors labeled matching", miss)
	}
}

func TestFitGMMValidation(t *testing.T) {
	gen, _ := fixture(t, 20, 20, 5)
	if _, err := generator.FitGMM(context.Background(), nil, generator.FitOptions{}); err == nil {
		t.Error("nil dataset accepted")
	}
	noMatch, err := dataset.NewER(gen.ER.A, gen.ER.B, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := generator.FitGMM(context.Background(), noMatch, generator.FitOptions{}); err == nil {
		t.Error("dataset without matches accepted")
	}
}

func TestSynthesizeProducesRequestedSizes(t *testing.T) {
	gen, synths := fixture(t, 40, 40, 20)
	res, err := Synthesize(context.Background(), gen.ER, Options{
		SizeA:        30,
		SizeB:        35,
		Synthesizers: synths,
		Seed:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Syn.Stats()
	if st.SizeA != 30 || st.SizeB != 35 {
		t.Errorf("sizes = %d/%d, want 30/35", st.SizeA, st.SizeB)
	}
	if st.Columns != 4 {
		t.Errorf("columns = %d", st.Columns)
	}
}

func TestSynthesizeDefaultsToRealSizes(t *testing.T) {
	gen, synths := fixture(t, 30, 25, 12)
	res, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Syn.Stats()
	if st.SizeA != 30 || st.SizeB != 25 {
		t.Errorf("sizes = %d/%d, want real sizes 30/25", st.SizeA, st.SizeB)
	}
}

func TestSynthesizeMatchCountNearReal(t *testing.T) {
	gen, synths := fixture(t, 60, 60, 30)
	res, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Expected sampled matches = |M_real|; S3 may add a few more. Allow a
	// generous band — the point is the order of magnitude.
	m := len(res.Syn.Matches)
	if m < 10 || m > 120 {
		t.Errorf("synthesized matches = %d, want near the real 30", m)
	}
	if res.SampledMatches == 0 {
		t.Error("no matching pairs were sampled during S2")
	}
}

func TestSynthesizedEntitiesAreNotCopies(t *testing.T) {
	gen, synths := fixture(t, 40, 40, 20)
	res, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	real := make(map[string]bool)
	titleIdx := gen.ER.Schema().ColumnIndex("title")
	for _, rel := range []*dataset.Relation{gen.ER.A, gen.ER.B} {
		for _, e := range rel.Entities {
			real[e.Values[titleIdx]] = true
		}
	}
	copies := 0
	for _, rel := range []*dataset.Relation{res.Syn.A, res.Syn.B} {
		for _, e := range rel.Entities {
			if real[e.Values[titleIdx]] {
				copies++
			}
		}
	}
	if copies > 4 {
		t.Errorf("%d synthesized titles are verbatim copies of real titles", copies)
	}
}

func TestSynthesizePreservesDistributionShape(t *testing.T) {
	// The headline claim: O_syn ≈ O_real. Matching pairs of E_syn must be
	// clearly more similar than non-matching pairs, with means close to the
	// real ones.
	gen, synths := fixture(t, 60, 60, 30)
	res, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	avg := func(xs [][]float64) float64 {
		s, n := 0.0, 0
		for _, x := range xs {
			for _, v := range x {
				s += v
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return s / float64(n)
	}
	realPos := avg(gen.ER.MatchingVectors())
	realNeg := avg(gen.ER.NonMatchingVectors(300, r))
	synPos := avg(res.Syn.MatchingVectors())
	synNeg := avg(res.Syn.NonMatchingVectors(300, r))
	if len(res.Syn.Matches) == 0 {
		t.Fatal("no synthesized matches to compare")
	}
	if math.Abs(synPos-realPos) > 0.2 {
		t.Errorf("matching mean similarity: syn %.3f vs real %.3f", synPos, realPos)
	}
	if math.Abs(synNeg-realNeg) > 0.15 {
		t.Errorf("non-matching mean similarity: syn %.3f vs real %.3f", synNeg, realNeg)
	}
	if synPos-synNeg < 0.2 {
		t.Errorf("synthesized M/N not separated: %.3f vs %.3f", synPos, synNeg)
	}
}

func TestSynthesizeValidation(t *testing.T) {
	gen, synths := fixture(t, 20, 20, 8)
	if _, err := Synthesize(context.Background(), nil, Options{Synthesizers: synths}); err == nil {
		t.Error("nil dataset accepted")
	}
	// Missing synthesizer for a textual column.
	if _, err := Synthesize(context.Background(), gen.ER, Options{Seed: 1}); err == nil {
		t.Error("missing synthesizers accepted")
	}
	bad := map[string]textsynth.Synthesizer{"title": synths["title"]}
	if _, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: bad, Seed: 1}); err == nil {
		t.Error("partially missing synthesizers accepted")
	}
}

// TestSynthesizeRejectsNegativeOptions pins the option values that used
// to be silently misread (a negative or NaN β turned discriminator
// rejection off) to an error naming the field.
func TestSynthesizeRejectsNegativeOptions(t *testing.T) {
	gen, synths := fixture(t, 20, 20, 8)
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{MaxRejections: -1}, "core: Options.MaxRejections = -1, want ≥ 0 (0 selects the default)"},
		{Options{Alpha: -0.5}, "core: Options.Alpha = -0.5, want ≥ 0 (0 selects the default)"},
		{Options{Alpha: math.NaN()}, "core: Options.Alpha = NaN, want ≥ 0 (0 selects the default)"},
		{Options{Beta: -0.1}, "core: Options.Beta = -0.1, want ≥ 0 (0 selects the default)"},
	} {
		tc.opts.Synthesizers, tc.opts.Seed = synths, 1
		_, err := Synthesize(context.Background(), gen.ER, tc.opts)
		if err == nil || err.Error() != tc.want {
			t.Errorf("error = %v, want %q", err, tc.want)
		}
	}
}

func TestSERDMinusSkipsRejection(t *testing.T) {
	gen, synths := fixture(t, 40, 40, 20)
	res, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, DisableRejection: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.RejectedByDiscriminator != 0 || res.RejectedByDistribution != 0 {
		t.Errorf("SERD- rejected entities: %d/%d", res.RejectedByDiscriminator, res.RejectedByDistribution)
	}
	st := res.Syn.Stats()
	if st.SizeA != 40 || st.SizeB != 40 {
		t.Errorf("SERD- sizes = %+v", st)
	}
}

func TestSynthesizeDeterministicForSeed(t *testing.T) {
	gen, synths := fixture(t, 25, 25, 10)
	a, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Syn.A.Entities {
		for j := range a.Syn.A.Entities[i].Values {
			if a.Syn.A.Entities[i].Values[j] != b.Syn.A.Entities[i].Values[j] {
				t.Fatal("synthesis not deterministic for equal seeds")
			}
		}
	}
}

func TestSynthesizeWithPrecomputedJoint(t *testing.T) {
	gen, synths := fixture(t, 30, 30, 12)
	j, err := generator.FitGMM(context.Background(), gen.ER, generator.FitOptions{Rand: rand.New(rand.NewSource(13))})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, Learned: j, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if res.OReal != j {
		t.Error("precomputed joint not used")
	}
}

func TestRejectionReducesJSDVersusSERDMinus(t *testing.T) {
	// The §V motivation: with rejection on, the final JSD(O_syn, O_real)
	// should not exceed the SERD- value by much — usually it is lower.
	gen, synths := fixture(t, 50, 50, 25)
	with, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, DisableRejection: true, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if with.JSD > without.JSD+0.1 {
		t.Errorf("JSD with rejection %.4f much worse than without %.4f", with.JSD, without.JSD)
	}
}

func TestLabelAllPairsUsesPosterior(t *testing.T) {
	gen, _ := fixture(t, 30, 30, 12)
	j, err := generator.FitGMM(context.Background(), gen.ER, generator.FitOptions{Rand: rand.New(rand.NewSource(16))})
	if err != nil {
		t.Fatal(err)
	}
	// Label the REAL dataset's pairs with S3: the recovered matches should
	// largely agree with ground truth (M and N are well separated).
	pa, pb := gen.ER.Prep(nil)
	matches, err := labelAllPairs(context.Background(), j, pa, pb, nil, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	truth := gen.ER.MatchSet()
	tp := 0
	for _, p := range matches {
		if truth[p] {
			tp++
		}
	}
	if tp < len(gen.ER.Matches)*8/10 {
		t.Errorf("S3 recovered only %d/%d true matches", tp, len(gen.ER.Matches))
	}
	if len(matches) > 3*len(gen.ER.Matches) {
		t.Errorf("S3 labeled %d pairs matching for %d true matches", len(matches), len(gen.ER.Matches))
	}
}

func TestJointIsUsableDownstream(t *testing.T) {
	gen, synths := fixture(t, 30, 30, 12)
	res, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// The returned O_real must be a valid generative model.
	r := rand.New(rand.NewSource(18))
	x, _ := res.OReal.Sample(r)
	if len(x) != gen.ER.Schema().Len() {
		t.Errorf("sampled vector dim %d", len(x))
	}
	if d := gmm.JSD(res.OReal, res.OReal, 64, r); d > 1e-9 {
		t.Errorf("self JSD = %v", d)
	}
}

func TestS3BlockingMatchesFullLabeling(t *testing.T) {
	gen, synths := fixture(t, 50, 50, 25)
	full, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	titleIdx := gen.ER.Schema().ColumnIndex("title")
	blocked, err := Synthesize(context.Background(), gen.ER, Options{
		Synthesizers: synths,
		S3Blocker:    blocking.QGram{Column: titleIdx},
		Seed:         21,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Same S2 stream (same seed), so the blocked match set must be a
	// near-subset of the full one: blocking can only drop posterior-labeled
	// pairs whose candidates it misses.
	fullSet := full.Syn.MatchSet()
	missing := 0
	for _, p := range blocked.Syn.Matches {
		if !fullSet[p] {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d blocked matches absent from full labeling", missing)
	}
	if len(blocked.Syn.Matches) < len(full.Syn.Matches)*7/10 {
		t.Errorf("blocking dropped too many matches: %d vs %d", len(blocked.Syn.Matches), len(full.Syn.Matches))
	}
}

func TestMatchesAreSortedDeterministically(t *testing.T) {
	gen, synths := fixture(t, 30, 30, 12)
	res, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Syn.Matches); i++ {
		a, b := res.Syn.Matches[i-1], res.Syn.Matches[i]
		if a.A > b.A || (a.A == b.A && a.B >= b.B) {
			t.Fatalf("matches not sorted at %d: %v then %v", i, a, b)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	gen, synths := fixture(t, 15, 15, 6)
	var calls int
	var lastDone, lastTotal int
	_, err := Synthesize(context.Background(), gen.ER, Options{
		Synthesizers: synths,
		Seed:         30,
		Progress: func(done, total int) {
			calls++
			lastDone, lastTotal = done, total
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One callback per accepted entity after the bootstrap.
	if calls != 29 {
		t.Errorf("progress called %d times, want 29", calls)
	}
	if lastDone != 30 || lastTotal != 30 {
		t.Errorf("final progress = %d/%d, want 30/30", lastDone, lastTotal)
	}
}

func TestSynthesizeRecordsTelemetry(t *testing.T) {
	gen, synths := fixture(t, 40, 40, 16)
	reg := telemetry.NewRegistry()
	res, err := Synthesize(context.Background(), gen.ER, Options{Synthesizers: synths, Metrics: reg, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	// Exactly the three paper stages: the silent setup and finalize
	// stages stay out of the registry (and so out of the journal).
	if got := phaseNames(snap); fmt.Sprint(got) != "[core.s1 core.s2 core.s3]" {
		t.Errorf("registry phases = %v, want [core.s1 core.s2 core.s3]", got)
	}
	accepted := snap.Counters["core.s2.accepted"]
	if accepted == 0 || snap.Counters["core.s2.attempts"] < accepted {
		t.Errorf("attempts=%v accepted=%v", snap.Counters["core.s2.attempts"], accepted)
	}
	if snap.Counters["gmm.em.fits"] == 0 || snap.Counters["gmm.em.iterations"] == 0 {
		t.Error("EM effort not recorded")
	}
	if got, ok := reg.Gauge("core.s2.jsd_final"); !ok || got != res.JSD {
		t.Errorf("core.s2.jsd_final = %v, %v; want %v", got, ok, res.JSD)
	}
	if h, ok := snap.Histograms["core.s2.attempts_per_entity"]; !ok || h.Count != uint64(accepted) {
		t.Errorf("attempts_per_entity histogram = %+v, %v; want count %v", h, ok, accepted)
	}
}
