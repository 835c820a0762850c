package gmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"serd/internal/detrand"
	"serd/internal/parallel"
)

// JSDStriped is the single-estimate striped estimator JSDPair replaced:
// stripe s draws from the SplitMix64 stream of SplitSeeds(seed, ·)[s],
// count samples from p and then count from q, and the stripes reduce in
// order. It is the oracle JSDPair's two values are pinned to.
func JSDStriped(p, q Dist, n int, seed int64) float64 {
	if n <= 0 {
		n = 256
	}
	stripes := (n + jsdStripe - 1) / jsdStripe
	var sp, sq float64
	for s, sub := range parallel.SplitSeeds(seed, stripes) {
		r := rand.New(detrand.NewSplitMix(sub))
		count := jsdStripe
		if s == stripes-1 {
			count = n - s*jsdStripe
		}
		sp += halfSum(p, q, count, r)
		sq += halfSum(q, p, count, r)
	}
	jsd := 0.5*(sp/float64(n)) + 0.5*(sq/float64(n))
	if jsd < 0 {
		return 0
	}
	return jsd
}

// wrapDist hides a Dist's concrete type, so JSDPair sees a q that is not
// a *Joint.
type wrapDist struct{ d Dist }

func (w wrapDist) Sample(r *rand.Rand) ([]float64, bool) { return w.d.Sample(r) }
func (w wrapDist) LogPDF(x []float64) float64            { return w.d.LogPDF(x) }

// TestJSDPairMatchesStripedOracle pins both JSDPair values bit for bit to
// two JSDStriped calls with one seed, across mixture weights (degenerate,
// interior and differing between the joints), every sharing of the side
// models, dimensions on both sides of the 16-coordinate stack limit of
// the density kernels, stripe-boundary sample counts, and a q
// that is not a *Joint. Each q also comes shaped like O_real, with more
// components per side (S1's four) than either joint's, which sizes
// JSDPair's scratch by q. Each dimension, and within it each sharing, is a
// parallel subtest; the models are drawn from one stream in dimension
// order before any subtest runs, the O_real-shaped q's from another.
func TestJSDPairMatchesStripedOracle(t *testing.T) {
	pis := [][2]float64{{0, 0}, {1, 1}, {0.3, 0.3}, {0.3, 0.45}, {0, 0.2}, {1, 0.6}}
	shares := []struct {
		name   string
		shareM bool
		shareN bool
	}{{"M shared", true, false}, {"N shared", false, true}, {"both changed", false, false}, {"both shared", true, true}}
	r, rq := rand.New(rand.NewSource(41)), rand.New(rand.NewSource(42))
	for _, dim := range []int{1, 4, 17} {
		m, n := randomModel(t, r, 3, dim), randomModel(t, r, 2, dim)
		m2, n2 := randomModel(t, r, 3, dim), randomModel(t, r, 1, dim)
		qj, err := NewJoint(randomModel(t, r, 2, dim), randomModel(t, r, 2, dim), 0.25)
		if err != nil {
			t.Fatal(err)
		}
		qReal, err := NewJoint(randomModel(t, rq, 4, dim), randomModel(t, rq, 4, dim), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			t.Parallel()
			for _, sh := range shares {
				am, an := m2, n2
				if sh.shareM {
					am = m
				}
				if sh.shareN {
					an = n
				}
				t.Run(sh.name, func(t *testing.T) {
					t.Parallel()
					for _, pi := range pis {
						before, err := NewJoint(m, n, pi[0])
						if err != nil {
							t.Fatal(err)
						}
						after, err := NewJoint(am, an, pi[1])
						if err != nil {
							t.Fatal(err)
						}
						for qi, q := range []Dist{qj, wrapDist{qj}, qReal, wrapDist{qReal}} {
							for _, ns := range []int{1, 31, 32, 33, 128, 200} {
								seed := int64(dim*1000 + ns)
								wantB := JSDStriped(before, q, ns, seed)
								wantA := JSDStriped(after, q, ns, seed)
								gotB, gotA := JSDPair(before, after, q, ns, seed)
								if math.Float64bits(gotB) != math.Float64bits(wantB) || math.Float64bits(gotA) != math.Float64bits(wantA) {
									t.Fatalf("pi=%v q#%d n=%d: JSDPair = (%v, %v), oracle (%v, %v)",
										pi, qi, ns, gotB, gotA, wantB, wantA)
								}
							}
						}
					}
				})
			}
		})
	}
}
