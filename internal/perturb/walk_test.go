package perturb

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"serd/internal/simfn"
)

// towardSimilarityOracle is Walk over simfn.FuncScorer calling sim on every step,
// no-op and equivalent edits included: the oracle the walk is tested
// against. It also returns how many steps were no-ops (cand == cur) and
// how many were equivalent under same without being equal.
func towardSimilarityOracle(s string, target, tol float64, sim func(string) float64, same func(a, b string) bool, maxSteps int, r *rand.Rand) (string, float64, int, int) {
	ops := []Op{Typo, DeleteChar, DropToken, SwapTokens, LowerCase, TitleCase}
	best, bestSim := s, sim(s)
	cur := s
	noops, equiv := 0, 0
	for i := 0; i < maxSteps; i++ {
		if diff := bestSim - target; diff <= tol && diff >= -tol {
			return best, bestSim, noops, equiv
		}
		cand := Apply(cur, ops, 1, r)
		if cand == cur {
			noops++
		} else if same != nil && same(cand, cur) {
			equiv++
		}
		cs := sim(cand)
		if abs(cs-target) < abs(bestSim-target) {
			best, bestSim = cand, cs
		}
		if cs > target {
			cur = cand
		} else {
			cur = s
		}
	}
	return best, bestSim, noops, equiv
}

// TestTowardSimilarityMatchesOracle checks the walk against the oracle
// that scores every step: same string, same similarity bits, same next
// draw, and exactly one sim call fewer per no-op step and per step
// equivalent under simfn.Equivalence. Some origins hold what a case op
// changes beyond ASCII letter case, so those steps must still be scored:
// white-space runs and tabs (TitleCase rejoins with single spaces),
// dotless ı, long ſ, the Kelvin sign, title-case ǅ, and an invalid byte
// next to a literal U+FFFD (LowerCase rewrites the byte).
func TestTowardSimilarityMatchesOracle(t *testing.T) {
	origins := []string{
		"", "x", "dsc-w830", "DSC-W830", "sony cyber-shot camera", "Sony Cyber-Shot Camera",
		"Forest Family Restaurant", "crème brûlée", "東京 タワー", "ab\xff cd", "İstanbul ǆemal", "1234 !!",
		"Forest  Family\tRestaurant", "a\t\tb  c", " lead trail ", "\tTab", "ıi", "ſ", "ſoft ſerve",
		"\u212Aelvin \u212A", "ǅemal ǅ", "ab\xff", "ab\uFFFD", "AB\xff Cd",
	}
	r := rand.New(rand.NewSource(11))
	alphabet := []string{"a", "b", "c", "x", "A", "B", "Q", "1", "-", " ", " ", "é", "É", "日", "ß", "\xff", "\t", "ı", "\u212A", "ǅ", "�"}
	for i := 0; i < 24; i++ {
		var o string
		for n := r.Intn(16); n > 0; n-- {
			o += alphabet[r.Intn(len(alphabet))]
		}
		origins = append(origins, o)
	}
	sims := []simfn.Func{
		simfn.QGramJaccard{Q: 3, Fold: true}, simfn.QGramJaccard{Q: 4, Fold: true},
		simfn.QGramJaccard{Q: 2}, simfn.EditSim{}, hashSim{},
	}
	noops, equiv, scored := 0, 0, 0
	for oi, o := range origins {
		for _, f := range sims {
			same := simfn.Equivalence(f)
			calls := 0
			counting := func(b string) float64 { calls++; return f.Sim(o, b) }
			for _, maxSteps := range []int{0, 1, 50, 200} {
				for ti := 0; ti <= 10; ti++ {
					target := float64(ti) / 10
					seed := int64(oi*1000 + maxSteps + ti)
					r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					calls = 0
					got, gotSim := new(Walker).Walk(o, target, 0.02, simfn.FuncScorer(counting, same), maxSteps, r1)
					gotCalls := calls
					calls = 0
					want, wantSim, n, e := towardSimilarityOracle(o, target, 0.02, counting, same, maxSteps, r2)
					if got != want || math.Float64bits(gotSim) != math.Float64bits(wantSim) {
						t.Fatalf("%s %q target %v steps %d: got (%q, %v), oracle (%q, %v)",
							f.Name(), o, target, maxSteps, got, gotSim, want, wantSim)
					}
					if g, w := r1.Int63(), r2.Int63(); g != w {
						t.Fatalf("%s %q target %v steps %d: next draw %d, oracle %d", f.Name(), o, target, maxSteps, g, w)
					}
					if gotCalls != calls-n-e {
						t.Fatalf("%s %q target %v steps %d: %d sim calls, oracle %d with %d no-op and %d equivalent steps",
							f.Name(), o, target, maxSteps, gotCalls, calls, n, e)
					}
					noops += n
					equiv += e
					scored += calls - n - e
				}
			}
		}
	}
	if noops == 0 || equiv == 0 || scored == 0 {
		t.Fatalf("walks exercised %d no-op, %d equivalent and %d scored steps; want all three", noops, equiv, scored)
	}
}

// hashSim is a pure, symmetric similarity with no structure: a hash of the
// unordered pair mapped into [0, 1). Unlike a real similarity it does not
// peak at sim(s, s), so the walk's branches all see values on both sides
// of the target.
type hashSim struct{}

func (hashSim) Name() string { return "hash" }

func (hashSim) Sim(a, b string) float64 {
	if a > b {
		a, b = b, a
	}
	h := fnv.New64a()
	h.Write([]byte(a))
	h.Write([]byte{0})
	h.Write([]byte(b))
	return float64(h.Sum64()>>11) / (1 << 53)
}
