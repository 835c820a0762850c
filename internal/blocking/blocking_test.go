package blocking

import (
	"math"
	"strings"
	"testing"

	"serd/internal/datagen"
	"serd/internal/dataset"
)

func fixture(t *testing.T) *datagen.Generated {
	t.Helper()
	gen, err := datagen.Scholar(datagen.Config{Seed: 1, SizeA: 120, SizeB: 120, Matches: 60, BackgroundPerColumn: 5})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func titleCol(t *testing.T, g *datagen.Generated) int {
	t.Helper()
	ci := g.ER.Schema().ColumnIndex("title")
	if ci < 0 {
		t.Fatal("no title column")
	}
	return ci
}

func mustCands(t *testing.T, bl Blocker, a, b *dataset.Relation) []dataset.Pair {
	t.Helper()
	cands, err := bl.Candidates(a, b)
	if err != nil {
		t.Fatalf("%s: %v", bl.Describe(), err)
	}
	return cands
}

func TestQGramBlockingRecallAndReduction(t *testing.T) {
	g := fixture(t)
	bl := QGram{Column: titleCol(t, g)}
	cands := mustCands(t, bl, g.ER.A, g.ER.B)
	q := Evaluate(g.ER, cands)
	// Matching pairs have near-identical titles, so q-gram blocking must
	// recover essentially all of them while pruning most of the pair space.
	if q.Recall < 0.95 {
		t.Errorf("recall = %v", q.Recall)
	}
	if q.ReductionRatio < 0.3 {
		t.Errorf("reduction ratio = %v (candidates %d of %d)", q.ReductionRatio, q.Candidates, g.ER.A.Len()*g.ER.B.Len())
	}
}

func TestTokenBlockingRecall(t *testing.T) {
	g := fixture(t)
	bl := Token{Column: titleCol(t, g)}
	q := Evaluate(g.ER, mustCands(t, bl, g.ER.A, g.ER.B))
	if q.Recall < 0.95 {
		t.Errorf("recall = %v", q.Recall)
	}
}

func TestSortedNeighborhoodRecall(t *testing.T) {
	g := fixture(t)
	bl := SortedNeighborhood{Column: titleCol(t, g)}
	q := Evaluate(g.ER, mustCands(t, bl, g.ER.A, g.ER.B))
	// Sorted neighborhood keys on the title prefix; case-folded duplicate
	// titles sort adjacently. (Typo'd first characters can escape the
	// window, so the bar is lower than index-based blocking.)
	if q.Recall < 0.7 {
		t.Errorf("recall = %v", q.Recall)
	}
	if q.ReductionRatio < 0.5 {
		t.Errorf("reduction ratio = %v", q.ReductionRatio)
	}
}

func TestUnionImprovesRecall(t *testing.T) {
	g := fixture(t)
	col := titleCol(t, g)
	single := Evaluate(g.ER, mustCands(t, SortedNeighborhood{Column: col}, g.ER.A, g.ER.B))
	union := Evaluate(g.ER, mustCands(t, Union{
		SortedNeighborhood{Column: col},
		QGram{Column: col},
	}, g.ER.A, g.ER.B))
	if union.Recall < single.Recall {
		t.Errorf("union recall %v below single %v", union.Recall, single.Recall)
	}
}

func TestCandidatesAreUniqueAndInRange(t *testing.T) {
	g := fixture(t)
	col := titleCol(t, g)
	for name, bl := range map[string]Blocker{
		"qgram": QGram{Column: col},
		"token": Token{Column: col},
		"snm":   SortedNeighborhood{Column: col},
		"union": Union{QGram{Column: col}, Token{Column: col}},
	} {
		cands := mustCands(t, bl, g.ER.A, g.ER.B)
		seen := make(map[dataset.Pair]bool, len(cands))
		for _, p := range cands {
			if seen[p] {
				t.Fatalf("%s: duplicate candidate %v", name, p)
			}
			seen[p] = true
			if p.A < 0 || p.A >= g.ER.A.Len() || p.B < 0 || p.B >= g.ER.B.Len() {
				t.Fatalf("%s: out-of-range candidate %v", name, p)
			}
		}
	}
}

// TestQGramMaxPerEntityCaps checks that no A-entity keeps more candidates
// than the cut allows: at a small cap, and at the shipped cap, which binds
// on this fixture.
func TestQGramMaxPerEntityCaps(t *testing.T) {
	g := fixture(t)
	col := titleCol(t, g)
	small, err := qgramCut{minShared: gramMinShared, max: 3}.candidatesOn(nil, col, g.ER.A, g.ER.B)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		cands []dataset.Pair
		max   int
	}{"cap 3": {small, 3}, "shipped": {mustCands(t, QGram{Column: col}, g.ER.A, g.ER.B), gramMaxPer}} {
		perA := map[int]int{}
		for _, p := range tc.cands {
			perA[p.A]++
			if perA[p.A] > tc.max {
				t.Fatalf("%s: entity %d has %d candidates, cap %d", name, p.A, perA[p.A], tc.max)
			}
		}
		if perA[0] != tc.max {
			t.Errorf("%s: entity 0 has %d candidates, want the cap %d to bind", name, perA[0], tc.max)
		}
	}
}

func TestEvaluateEmpty(t *testing.T) {
	g := fixture(t)
	q := Evaluate(g.ER, nil)
	if q.Recall != 0 || q.Candidates != 0 || q.ReductionRatio != 1 {
		t.Errorf("empty candidates: %+v", q)
	}
}

// TestEvaluateCountsHugeRelations is the overflow regression: relation
// sizes past 2³² make the int pair-space product wrap (negative total,
// reduction ratio above 1). The float64 path must stay in [0, 1].
func TestEvaluateCountsHugeRelations(t *testing.T) {
	side := 4_000_000_000 // 4e9 per side → 1.6e19 pairs, past int64 max
	q := EvaluateCounts(side, side, 1_000_000, 950_000, 40_000_000_000)
	if q.Recall != 0.95 {
		t.Errorf("recall = %v, want 0.95", q.Recall)
	}
	want := 1 - 4e10/(float64(side)*float64(side))
	if math.Abs(q.ReductionRatio-want) > 1e-12 {
		t.Errorf("reduction ratio = %v, want %v", q.ReductionRatio, want)
	}
	if q.ReductionRatio < 0 || q.ReductionRatio > 1 {
		t.Errorf("reduction ratio %v outside [0,1] — pair space overflowed", q.ReductionRatio)
	}
	// The pre-fix arithmetic, reproduced here, wraps negative — the exact
	// failure mode the float64 pair space removes.
	if wrapped := side * side; wrapped > 0 {
		t.Errorf("expected int pair space to wrap at this size, got %d", wrapped)
	}
}

func TestEvaluateDelegatesToCounts(t *testing.T) {
	g := fixture(t)
	cands := mustCands(t, QGram{Column: titleCol(t, g)}, g.ER.A, g.ER.B)
	got := Evaluate(g.ER, cands)
	set := make(map[dataset.Pair]bool, len(cands))
	for _, p := range cands {
		set[p] = true
	}
	hit := 0
	for _, m := range g.ER.Matches {
		if set[m] {
			hit++
		}
	}
	want := EvaluateCounts(g.ER.A.Len(), g.ER.B.Len(), len(g.ER.Matches), hit, len(cands))
	if got != want {
		t.Errorf("Evaluate = %+v, EvaluateCounts = %+v", got, want)
	}
}

func TestOutOfRangeColumnErrors(t *testing.T) {
	g := fixture(t)
	bad := g.ER.Schema().Len() // one past the last column
	for name, bl := range map[string]Blocker{
		"qgram": QGram{Column: bad},
		"token": Token{Column: bad},
		"snm":   SortedNeighborhood{Column: bad},
		"union": Union{QGram{Column: 0}, Token{Column: bad}},
		"neg":   QGram{Column: -1},
	} {
		cands, err := bl.Candidates(g.ER.A, g.ER.B)
		if err == nil {
			t.Fatalf("%s: no error for out-of-range column", name)
		}
		if cands != nil {
			t.Fatalf("%s: candidates returned alongside error", name)
		}
		if !strings.Contains(err.Error(), "column") {
			t.Errorf("%s: error %q does not name the column", name, err)
		}
		if !strings.Contains(err.Error(), "blocking:") {
			t.Errorf("%s: error %q does not name the package/blocker", name, err)
		}
	}
}

func TestUnionDedupDeterminism(t *testing.T) {
	g := fixture(t)
	col := titleCol(t, g)
	u := Union{QGram{Column: col}, Token{Column: col}, SortedNeighborhood{Column: col}}
	first := mustCands(t, u, g.ER.A, g.ER.B)
	seen := make(map[dataset.Pair]bool, len(first))
	for _, p := range first {
		if seen[p] {
			t.Fatalf("duplicate candidate %v in union output", p)
		}
		seen[p] = true
	}
	for run := 0; run < 3; run++ {
		again := mustCands(t, u, g.ER.A, g.ER.B)
		if len(again) != len(first) {
			t.Fatalf("run %d: %d candidates, first run had %d", run, len(again), len(first))
		}
		for i := range again {
			if again[i] != first[i] {
				t.Fatalf("run %d: candidate %d differs: %v vs %v", run, i, again[i], first[i])
			}
		}
	}
}

func TestDescribeNamesBlockerAndParams(t *testing.T) {
	for want, bl := range map[string]Blocker{
		"qgram(col=2,q=3,min_shared=2,max_per=64)": QGram{Column: 2},
		"token(col=1,max_per_token=50)":            Token{Column: 1},
		"sn(col=0,window=5)":                       SortedNeighborhood{},
		"union(qgram(col=0,q=3,min_shared=2,max_per=64),token(col=0,max_per_token=50))": Union{QGram{}, Token{}},
	} {
		if got := bl.Describe(); got != want {
			t.Errorf("Describe() = %q, want %q", got, want)
		}
	}
}
