package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"serd/internal/simfn"
)

func paperSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Column{
		{Name: "title", Kind: Textual, Sim: simfn.QGramJaccard{Q: 3, Fold: true}},
		{Name: "authors", Kind: Textual, Sim: simfn.QGramJaccard{Q: 3, Fold: true}},
		{Name: "venue", Kind: Categorical, Sim: simfn.QGramJaccard{Q: 3, Fold: true}},
		{Name: "year", Kind: Numeric, Sim: simfn.Numeric{Min: 1995, Max: 2005}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func paperER(t *testing.T) *ER {
	t.Helper()
	s := paperSchema(t)
	a := NewRelation("DBLP", s)
	b := NewRelation("ACM", s)
	rowsA := [][]string{
		{"Adaptable Query Optimization and Evaluation in Temporal Middleware", "Christian S. Jensen, Richard T. Snodgrass, Giedrius Slivinskas", "SIGMOD Conference", "2001"},
		{"Generalised Hash Teams for Join and Group-by", "Donald Kossmann, Alfons Kemper, Christian Wiesner", "VLDB", "1999"},
		{"A simple algorithm for finding frequent elements in streams and bags", "Richard M. Karp", "ACM Trans. Database Syst.", "2003"},
	}
	rowsB := [][]string{
		{"Adaptable query optimization and evaluation in temporal middleware", "Giedrius Slivinskas, Christian S. Jensen, Richard Thomas Snodgrass", "International Conference on Management of Data", "2001"},
		{"Generalised Hash Teams for Join and Group-by", "Alfons Kemper, Donald Kossmann, Christian Wiesner", "Very Large Data Bases", "1999"},
		{"Parameterized complexity for the database theorist", "Martin Grohe", "ACM SIGMOD Record", "2002"},
	}
	for i, row := range rowsA {
		if err := a.Append(&Entity{ID: fmt.Sprintf("a%d", i+1), Values: row}); err != nil {
			t.Fatal(err)
		}
	}
	for i, row := range rowsB {
		if err := b.Append(&Entity{ID: fmt.Sprintf("b%d", i+1), Values: row}); err != nil {
			t.Fatal(err)
		}
	}
	er, err := NewER(a, b, []Pair{{0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return er
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(nil); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema([]Column{{Name: "", Sim: simfn.Exact{}}}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := NewSchema([]Column{{Name: "x", Sim: nil}}); err == nil {
		t.Error("nil sim func accepted")
	}
	if _, err := NewSchema([]Column{
		{Name: "x", Sim: simfn.Exact{}},
		{Name: "x", Sim: simfn.Exact{}},
	}); err == nil {
		t.Error("duplicate column accepted")
	}
}

func TestSimVectorExample2(t *testing.T) {
	// The year similarity of (a1, b1) per Example 2 is 1, and the identical
	// titles of (a2, b2) give title similarity 1.
	er := paperER(t)
	s := er.Schema()
	x1 := s.SimVector(er.A.Entities[0], er.B.Entities[0])
	if x1[3] != 1.0 {
		t.Errorf("year sim of (a1,b1) = %v, want 1", x1[3])
	}
	if x1[0] != 1.0 {
		t.Errorf("title sim of (a1,b1) = %v, want 1 (case-only difference, folded)", x1[0])
	}
	x2 := s.SimVector(er.A.Entities[1], er.B.Entities[1])
	if x2[0] != 1.0 {
		t.Errorf("title sim of (a2,b2) = %v, want 1", x2[0])
	}
	// Non-matching pair (a1, b3): year sim = 1 - |2001-2002|/10 = 0.9.
	x3 := s.SimVector(er.A.Entities[0], er.B.Entities[2])
	if math.Abs(x3[3]-0.9) > 1e-12 {
		t.Errorf("year sim of (a1,b3) = %v, want 0.9", x3[3])
	}
}

func TestMatchingAndNonMatchingVectors(t *testing.T) {
	er := paperER(t)
	xp := er.MatchingVectors()
	if len(xp) != 2 {
		t.Fatalf("|X+| = %d, want 2", len(xp))
	}
	r := rand.New(rand.NewSource(1))
	xn := er.NonMatchingVectors(0, r)
	if len(xn) != 7 { // 3*3 - 2
		t.Fatalf("|X-| = %d, want 7", len(xn))
	}
	// Matching vectors should dominate non-matching on title similarity.
	for _, x := range xp {
		if x[0] < 0.8 {
			t.Errorf("matching title sim %v unexpectedly low", x[0])
		}
	}
}

func TestNonMatchingPairsSampled(t *testing.T) {
	er := paperER(t)
	r := rand.New(rand.NewSource(2))
	got := er.NonMatchingPairs(3, r)
	if len(got) != 3 {
		t.Fatalf("sampled %d pairs, want 3", len(got))
	}
	seen := map[Pair]bool{}
	match := er.MatchSet()
	for _, p := range got {
		if match[p] {
			t.Errorf("sampled a matching pair %v", p)
		}
		if seen[p] {
			t.Errorf("duplicate sampled pair %v", p)
		}
		seen[p] = true
	}
}

func TestPi(t *testing.T) {
	er := paperER(t)
	if got := er.Pi(7); math.Abs(got-2.0/9.0) > 1e-12 {
		t.Errorf("Pi = %v, want 2/9", got)
	}
	empty := &ER{A: NewRelation("A", er.Schema()), B: NewRelation("B", er.Schema())}
	if empty.Pi(0) != 0 {
		t.Error("Pi of empty dataset should be 0")
	}
}

func TestStats(t *testing.T) {
	er := paperER(t)
	st := er.Stats()
	if st.SizeA != 3 || st.SizeB != 3 || st.Columns != 4 || st.Matches != 2 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestNewERValidation(t *testing.T) {
	er := paperER(t)
	if _, err := NewER(er.A, er.B, []Pair{{5, 0}}); err == nil {
		t.Error("out-of-range match accepted")
	}
}

func TestRelationAppendArity(t *testing.T) {
	s := paperSchema(t)
	r := NewRelation("X", s)
	if err := r.Append(&Entity{ID: "e", Values: []string{"only one"}}); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestColumnValues(t *testing.T) {
	er := paperER(t)
	venues := er.A.ColumnValues(2)
	if len(venues) != 3 {
		t.Fatalf("got %d venues, want 3", len(venues))
	}
	if venues[0] != "SIGMOD Conference" {
		t.Errorf("first-seen order violated: %v", venues)
	}
}

func TestLabeledPairsAndSplit(t *testing.T) {
	er := paperER(t)
	r := rand.New(rand.NewSource(3))
	pairs := LabeledPairs(er, 2, r)
	pos, neg := 0, 0
	for _, p := range pairs {
		if p.Match {
			pos++
		} else {
			neg++
		}
	}
	if pos != 2 || neg != 4 {
		t.Fatalf("pos=%d neg=%d, want 2 and 4", pos, neg)
	}
	train, test, err := Split(pairs, 0.5, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(train)+len(test) != len(pairs) {
		t.Fatalf("split lost examples: %d + %d != %d", len(train), len(test), len(pairs))
	}
	hasPos := func(xs []LabeledPair) bool {
		for _, p := range xs {
			if p.Match {
				return true
			}
		}
		return false
	}
	if !hasPos(train) || !hasPos(test) {
		t.Error("stratified split must put positives on both sides")
	}
	if _, _, err := Split(pairs, 0, r); err == nil {
		t.Error("testFrac=0 accepted")
	}
}

func TestVectors(t *testing.T) {
	er := paperER(t)
	r := rand.New(rand.NewSource(4))
	pairs := LabeledPairs(er, 1, r)
	xs, ys := Vectors(pairs)
	if len(xs) != len(pairs) || len(ys) != len(pairs) {
		t.Fatal("length mismatch")
	}
	for i := range pairs {
		if ys[i] != pairs[i].Match {
			t.Fatal("label mismatch")
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	er := paperER(t)
	var bufA, bufM bytes.Buffer
	if err := WriteRelation(&bufA, er.A); err != nil {
		t.Fatal(err)
	}
	gotA, err := ReadRelation(&bufA, "DBLP", er.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if gotA.Len() != er.A.Len() {
		t.Fatalf("round-trip size %d, want %d", gotA.Len(), er.A.Len())
	}
	for i, e := range gotA.Entities {
		orig := er.A.Entities[i]
		if e.ID != orig.ID {
			t.Errorf("entity %d id %q, want %q", i, e.ID, orig.ID)
		}
		for j, v := range e.Values {
			if v != orig.Values[j] {
				t.Errorf("entity %d col %d = %q, want %q", i, j, v, orig.Values[j])
			}
		}
	}
	if err := WriteMatches(&bufM, er); err != nil {
		t.Fatal(err)
	}
	matches, err := ReadMatches(&bufM, er.A, er.B)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != len(er.Matches) {
		t.Fatalf("matches round-trip %d, want %d", len(matches), len(er.Matches))
	}
	for i, p := range matches {
		if p != er.Matches[i] {
			t.Errorf("match %d = %v, want %v", i, p, er.Matches[i])
		}
	}
}

func TestReadRelationRejectsBadHeader(t *testing.T) {
	s := paperSchema(t)
	bad := bytes.NewBufferString("wrong,title,authors,venue,year\n")
	if _, err := ReadRelation(bad, "X", s); err == nil {
		t.Error("bad header accepted")
	}
}

func TestSaveLoadDir(t *testing.T) {
	er := paperER(t)
	dir := t.TempDir()
	if err := SaveDir(dir, er); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir, er.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if back.A.Len() != er.A.Len() || back.B.Len() != er.B.Len() || len(back.Matches) != len(er.Matches) {
		t.Errorf("LoadDir sizes differ: %+v", back.Stats())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Textual: "textual", Categorical: "categorical", Numeric: "numeric", Date: "date"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestEntityClone(t *testing.T) {
	e := &Entity{ID: "x", Values: []string{"a", "b"}}
	c := e.Clone()
	c.Values[0] = "changed"
	if e.Values[0] != "a" {
		t.Error("Clone shares value storage")
	}
}

func TestSimVectorBoundsProperty(t *testing.T) {
	// Property: every similarity vector coordinate lies in [0, 1] for
	// arbitrary entity values.
	er := paperER(t)
	s := er.Schema()
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(41))}
	err := quick.Check(func(v1, v2, v3, v4, w1, w2, w3, w4 string) bool {
		a := &Entity{ID: "a", Values: []string{v1, v2, v3, v4}}
		b := &Entity{ID: "b", Values: []string{w1, w2, w3, w4}}
		x := s.SimVector(a, b)
		for _, v := range x {
			if v < 0 || v > 1 || v != v { // v != v catches NaN
				return false
			}
		}
		// Self-similarity is maximal for identical entities.
		self := s.SimVector(a, a)
		for _, v := range self {
			if v != 1 {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestLabeledPairsMixedCoversBothRegimes(t *testing.T) {
	er := paperER(t)
	r := rand.New(rand.NewSource(42))
	// Candidates = all pairs: the hard half must be the highest-similarity
	// non-matches.
	var all []Pair
	for i := 0; i < er.A.Len(); i++ {
		for j := 0; j < er.B.Len(); j++ {
			all = append(all, Pair{A: i, B: j})
		}
	}
	pairs := LabeledPairsMixed(er, 4, all, r)
	pos, neg := 0, 0
	for _, p := range pairs {
		if p.Match {
			pos++
		} else {
			neg++
		}
	}
	if pos != len(er.Matches) {
		t.Errorf("pos = %d, want %d", pos, len(er.Matches))
	}
	if neg == 0 {
		t.Error("no negatives sampled")
	}
	// HardestNonMatches is sorted descending by mean similarity.
	pa, pb := er.Prep(nil)
	hard := HardestNonMatches(er, all, 5, pa, pb, nil)
	for i := 1; i < len(hard); i++ {
		if meanOf(hard[i].Vector) > meanOf(hard[i-1].Vector)+1e-12 {
			t.Fatal("hardest negatives not sorted by mean similarity")
		}
	}
	for _, lp := range hard {
		if er.MatchSet()[lp.Pair] {
			t.Fatal("a true match leaked into the hard negatives")
		}
	}
}

func meanOf(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}
