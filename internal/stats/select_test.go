package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSelectMatchesSort checks every rank of random inputs — heavy ties,
// sorted, reversed and signed zeros included — against a full sort.
func TestSelectMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(60)
		distinct := 1 + r.Intn(n)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(distinct)) / 4
			if xs[i] == 0 && r.Intn(2) == 0 {
				xs[i] = math.Copysign(0, -1)
			}
		}
		switch trial % 3 {
		case 1:
			slices.Sort(xs)
		case 2:
			slices.Sort(xs)
			slices.Reverse(xs)
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		for k := range xs {
			if got := Select(slices.Clone(xs), k); got != sorted[k] {
				t.Fatalf("Select(%v, %d) = %v, want %v", xs, k, got, sorted[k])
			}
		}
	}
	ids := []int32{5, 1, 4, 1, 5, 9, 2, 6}
	if got := Select(ids, 3); got != 4 {
		t.Fatalf("Select(ids, 3) = %d, want 4", got)
	}
}

func TestSelectPanicsOutOfRange(t *testing.T) {
	for _, k := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Select(k=%d) did not panic", k)
				}
			}()
			Select([]int{1, 2, 3}, k)
		}()
	}
}
