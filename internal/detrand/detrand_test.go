package detrand

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestTransparentStream pins that a rand.Rand over a counting Source emits
// the same stream as one over a bare rand.NewSource — the wrapper must not
// perturb any pipeline output.
func TestTransparentStream(t *testing.T) {
	a := rand.New(New(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		switch i % 5 {
		case 0:
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("draw %d: Float64 %v != %v", i, x, y)
			}
		case 1:
			if x, y := a.Intn(1000), b.Intn(1000); x != y {
				t.Fatalf("draw %d: Intn %v != %v", i, x, y)
			}
		case 2:
			if x, y := a.NormFloat64(), b.NormFloat64(); x != y {
				t.Fatalf("draw %d: NormFloat64 %v != %v", i, x, y)
			}
		case 3:
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("draw %d: Uint64 %v != %v", i, x, y)
			}
		case 4:
			pa, pb := a.Perm(7), b.Perm(7)
			for j := range pa {
				if pa[j] != pb[j] {
					t.Fatalf("draw %d: Perm %v != %v", i, pa, pb)
				}
			}
		}
	}
}

// TestSkipToContinuation pins the core checkpoint property: record Draws()
// after a mixed workload, then a freshly seeded source fast-forwarded with
// SkipTo continues with exactly the same stream. This fails if Int63 and
// Uint64 ever advance the underlying generator by different step counts.
func TestSkipToContinuation(t *testing.T) {
	src := New(7)
	r := rand.New(src)
	// Mixed draw types, including rejection-sampling consumers (NormFloat64,
	// Intn) whose draw count per call is variable.
	for i := 0; i < 137; i++ {
		switch i % 4 {
		case 0:
			r.Float64()
		case 1:
			r.NormFloat64()
		case 2:
			r.Intn(13)
		case 3:
			r.Perm(5)
		}
	}
	mark := src.Draws()
	if mark == 0 {
		t.Fatal("no draws counted")
	}

	restored := New(7)
	if err := restored.SkipTo(mark); err != nil {
		t.Fatal(err)
	}
	if restored.Draws() != mark {
		t.Fatalf("Draws after SkipTo = %d, want %d", restored.Draws(), mark)
	}
	r2 := rand.New(restored)
	for i := 0; i < 200; i++ {
		if x, y := r.NormFloat64(), r2.NormFloat64(); x != y {
			t.Fatalf("continuation draw %d: %v != %v", i, x, y)
		}
		if x, y := r.Intn(1_000_000), r2.Intn(1_000_000); x != y {
			t.Fatalf("continuation draw %d: Intn %v != %v", i, x, y)
		}
	}
}

func TestSkipToRefusesRewind(t *testing.T) {
	src := New(1)
	r := rand.New(src)
	for i := 0; i < 10; i++ {
		r.Float64()
	}
	if err := src.SkipTo(src.Draws() - 1); err == nil {
		t.Fatal("SkipTo accepted a rewind")
	}
	if err := src.SkipTo(src.Draws()); err != nil {
		t.Fatalf("SkipTo to current position: %v", err)
	}
}

func TestSeedResetsCounter(t *testing.T) {
	src := New(3)
	rand.New(src).Float64()
	if src.Draws() == 0 {
		t.Fatal("no draws counted")
	}
	src.Seed(9)
	if src.Draws() != 0 {
		t.Fatalf("Draws after Seed = %d, want 0", src.Draws())
	}
	if src.SeedValue() != 9 {
		t.Fatalf("SeedValue = %d, want 9", src.SeedValue())
	}
}

// TestSplitMixPinsReferenceOutputs pins SplitMix's first draws to the
// published SplitMix64 reference outputs for seeds 0 and 1234567: every
// S2 substream and JSD stripe is this generator, so a change here moves
// every synthesized byte.
func TestSplitMixPinsReferenceOutputs(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want []uint64
	}{
		{0, []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec}},
		{1234567, []uint64{0x599ed017fb08fc85, 0x2c73f08458540fa5, 0x883ebce5a3f27c77}},
	} {
		s := NewSplitMix(tc.seed)
		for i, want := range tc.want {
			if got := s.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: %#x, want %#x", tc.seed, i, got, want)
			}
		}
		// Int63 is the low 63 bits of the same draw, and Seed restarts.
		s.Seed(tc.seed)
		if got, want := s.Int63(), int64(tc.want[0]&(1<<63-1)); got != want {
			t.Fatalf("seed %d: Int63 after Seed = %d, want %d", tc.seed, got, want)
		}
	}
}

// TestDerivePinsSubstreamSeeds pins Derive's values, and that it keys
// by every argument: the seed, each key and the key list's length.
func TestDerivePinsSubstreamSeeds(t *testing.T) {
	for _, tc := range []struct {
		keys []uint64
		want int64
	}{
		{nil, 6238072747940578789},
		{[]uint64{0}, 5199774590669546748},
		{[]uint64{0, 0}, -4377400271981874747},
		{[]uint64{1}, 4158004636484536377},
	} {
		if got := Derive(1, tc.keys...); got != tc.want {
			t.Errorf("Derive(1, %v) = %d, want %d", tc.keys, got, tc.want)
		}
	}
	seen := make(map[int64]string)
	add := func(v int64, name string) {
		if prev, ok := seen[v]; ok {
			t.Fatalf("%s and %s derive the same seed", prev, name)
		}
		seen[v] = name
	}
	for seed := int64(0); seed < 4; seed++ {
		for j := uint64(0); j < 64; j++ {
			add(Derive(seed, j), fmt.Sprintf("(%d, %d)", seed, j))
			for k := uint64(0); k < 8; k++ {
				add(Derive(seed, j, k), fmt.Sprintf("(%d, %d, %d)", seed, j, k))
			}
		}
	}
}
