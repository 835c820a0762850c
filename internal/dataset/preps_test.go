package dataset

import (
	"fmt"
	"math/rand"
	"testing"

	"serd/internal/parallel"
	"serd/internal/simfn"
)

// mixedER builds two relations over every kind of similarity function a
// schema may carry — packed (q ≤ 3) and substring (q > 3) q-gram sets,
// token sets, and the non-Preprocessor exact, edit and numeric functions —
// with values that include invalid UTF-8, U+FFFD, empty and sub-q strings.
func mixedER(t testing.TB) *ER {
	t.Helper()
	s, err := NewSchema([]Column{
		{Name: "q3", Kind: Textual, Sim: simfn.QGramJaccard{Q: 3, Fold: true}},
		{Name: "q4", Kind: Textual, Sim: simfn.QGramJaccard{Q: 4}},
		{Name: "tok", Kind: Textual, Sim: simfn.TokenJaccard{}},
		{Name: "exact", Kind: Categorical, Sim: simfn.Exact{}},
		{Name: "edit", Kind: Textual, Sim: simfn.EditSim{}},
		{Name: "num", Kind: Numeric, Sim: simfn.Numeric{Min: 0, Max: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"", "a", "ab", "Café", "CAFÉ", "caf\xc3", "ab\xffcd", "ab�cd", "\xff\xfe", "İstanbul", "new york", "York New", "42"}
	r := rand.New(rand.NewSource(6))
	word := func() string { return words[r.Intn(len(words))] }
	rel := func(name string, n int) *Relation {
		out := NewRelation(name, s)
		for i := 0; i < n; i++ {
			v := []string{word() + " " + word(), word() + word(), word() + " " + word(), word(), word(), fmt.Sprint(r.Intn(120))}
			if err := out.Append(&Entity{ID: fmt.Sprintf("%s%d", name, i), Values: v}); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	er, err := NewER(rel("a", 25), rel("b", 30), []Pair{{0, 0}, {3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	return er
}

// TestBoundColumnPicksLargestPreps checks that hard-negative pruning
// bounds the q-gram column with the most grams over both relations, the
// one whose merges cost most, wherever it sits among other q-gram and
// non-q-gram columns, and that a schema without a q-gram column has
// nothing to bound.
func TestBoundColumnPicksLargestPreps(t *testing.T) {
	short, long := simfn.QGramJaccard{Q: 3, Fold: true}, simfn.QGramJaccard{Q: 4}
	for _, tc := range []struct {
		sims []simfn.Func
		want int
	}{
		{[]simfn.Func{short, simfn.Exact{}, long, simfn.TokenJaccard{}}, 2},
		{[]simfn.Func{long, simfn.Exact{}, short}, 0},
		{[]simfn.Func{simfn.Exact{}, simfn.TokenJaccard{}}, -1},
	} {
		cols := make([]Column, len(tc.sims))
		for c, sim := range tc.sims {
			cols[c] = Column{Name: fmt.Sprint("c", c), Kind: Textual, Sim: sim}
		}
		s, err := NewSchema(cols)
		if err != nil {
			t.Fatal(err)
		}
		ents := make([]*Entity, 6)
		for i := range ents {
			v := make([]string, len(cols))
			for c, sim := range tc.sims {
				v[c] = fmt.Sprint("ab", i)
				if sim == long {
					v[c] = fmt.Sprint("a long description of item ", i)
				}
			}
			ents[i] = &Entity{ID: fmt.Sprint(i), Values: v}
		}
		a, b := NewPreps(s, ents[:3], nil, ""), NewPreps(s, ents[3:], nil, "")
		if got := a.boundColumn(b); got != tc.want {
			t.Errorf("%v: bounded column %d, want %d", tc.sims, got, tc.want)
		}
	}
}

// TestPrepsMatchSchemaSimVector is the positional preps' correctness
// contract: every pair vector read from preps — built in one batch, on a
// pool, or one entity at a time by Append as S2 grows its pools — equals
// Schema.SimVector bit for bit, on every pairing, in both argument orders.
func TestPrepsMatchSchemaSimVector(t *testing.T) {
	for _, er := range []*ER{paperER(t), mixedER(t)} {
		s := er.Schema()
		a, b := er.Prep(parallel.New(3, nil))
		grown := NewPreps(s, nil, nil, "")
		for _, e := range er.B.Entities {
			grown.Append(NewPreps(s, []*Entity{e}, nil, ""))
		}
		if grown.Len() != er.B.Len() {
			t.Fatalf("grown preps hold %d entities, want %d", grown.Len(), er.B.Len())
		}
		for i, ea := range er.A.Entities {
			for j, eb := range er.B.Entities {
				want := s.SimVector(ea, eb)
				for _, got := range [][]float64{a.SimVector(i, b, j), a.SimVector(i, grown, j)} {
					if !sameBits(got, want) {
						t.Fatalf("pair (%q, %q): positional %v, Schema.SimVector %v", ea.Values, eb.Values, got, want)
					}
				}
				if got, want := b.SimVector(j, a, i), s.SimVector(eb, ea); !sameBits(got, want) {
					t.Fatalf("pair (%q, %q): positional %v, Schema.SimVector %v", eb.Values, ea.Values, got, want)
				}
			}
		}
	}
}

// TestPrepsAppendLeavesCallerSliceAlone checks that growing preps built
// over a relation's entity slice never writes into that slice's spare
// capacity, which the relation's own Append would later reuse.
func TestPrepsAppendLeavesCallerSliceAlone(t *testing.T) {
	er := paperER(t)
	ents := make([]*Entity, 1, 4)
	ents[0] = er.A.Entities[0]
	p := NewPreps(er.Schema(), ents, nil, "")
	p.Append(NewPreps(er.Schema(), er.A.Entities[1:2], nil, ""))
	if spare := ents[:2][1]; spare != nil {
		t.Fatalf("Append wrote %v into the caller's spare capacity", spare)
	}
}
