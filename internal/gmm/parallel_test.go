package gmm

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"serd/internal/parallel"
)

// testJoints fits two mildly different O-distributions for JSD tests.
func testJoints(t *testing.T) (*Joint, *Joint) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	m1, err := Fit(context.Background(), twoClusterData(r, 200), 2, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(context.Background(), twoClusterData(r, 200), 2, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewJoint(m1, m2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := Fit(context.Background(), twoClusterData(r, 150), 2, FitOptions{Rand: r})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewJoint(m3, m2, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	return p, q
}

func TestJSDPairTracksSerialJSD(t *testing.T) {
	p, q := testJoints(t)
	after, err := NewJoint(p.M, q.M, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	jb, ja := JSDPair(p, after, q, 4000, 99)
	for name, pair := range map[string]struct {
		striped float64
		j       *Joint
	}{"before": {jb, p}, "after": {ja, after}} {
		if pair.striped < 0 || pair.striped > math.Log(2)+1e-9 {
			t.Fatalf("%s: JSDPair = %v outside [0, ln 2]", name, pair.striped)
		}
		// Different sample streams, same estimand: they should agree loosely.
		serial := JSD(pair.j, q, 4000, rand.New(rand.NewSource(99)))
		if math.Abs(pair.striped-serial) > 0.1 {
			t.Errorf("%s: striped %v vs serial %v differ beyond Monte-Carlo noise", name, pair.striped, serial)
		}
	}
	// log-sum-exp of two identical densities rounds, so JSD(p, p) is only
	// zero to machine precision, not exactly.
	sameB, sameA := JSDPair(p, p, p, 2000, 5)
	if sameB < 0 || sameB > 1e-12 || sameA != sameB {
		t.Errorf("JSD(p, p) = (%v, %v), want equal and ~0", sameB, sameA)
	}
}

// TestFitPoolInvariant pins EM's contract that the E-step pool is purely an
// execution parameter: fits at any worker count are bit-identical.
func TestFitPoolInvariant(t *testing.T) {
	xs := twoClusterData(rand.New(rand.NewSource(11)), 250)
	serial, err := Fit(context.Background(), xs, 2, FitOptions{Rand: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := Fit(context.Background(), xs, 2, FitOptions{Rand: rand.New(rand.NewSource(4)), Pool: parallel.New(workers, nil)})
		if err != nil {
			t.Fatal(err)
		}
		for c := range serial.Comps {
			if serial.Comps[c].Weight != got.Comps[c].Weight {
				t.Errorf("workers=%d comp %d: weight %v != %v", workers, c, got.Comps[c].Weight, serial.Comps[c].Weight)
			}
			for d := range serial.Comps[c].Mean {
				if serial.Comps[c].Mean[d] != got.Comps[c].Mean[d] {
					t.Errorf("workers=%d comp %d dim %d: mean %v != %v", workers, c, d, got.Comps[c].Mean[d], serial.Comps[c].Mean[d])
				}
			}
		}
	}
}
