package parallel

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"serd/internal/telemetry"
	"serd/internal/trace"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		for _, n := range []int{0, 1, 2, 5, 16, 100} {
			p := New(workers, nil)
			hits := make([]int32, n)
			p.Run("", n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Errorf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestNilPoolRunsSerially(t *testing.T) {
	var p *Pool
	if got := p.Workers(); got != 1 {
		t.Errorf("nil pool Workers() = %d, want 1", got)
	}
	sum := 0
	p.ForEach(5, func(i int) { sum += i })
	if sum != 10 {
		t.Errorf("nil pool ForEach sum = %d, want 10", sum)
	}
}

// TestClaimCoversEveryIndexOnce pins Claim's contract: every index runs
// exactly once at any worker count, also when fn nests Run on the same
// pool, and a nil or one-worker pool runs the indices in ascending order.
func TestClaimCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		for _, n := range []int{0, 1, 2, 5, 16, 100} {
			p := New(workers, nil)
			hits := make([]int32, n)
			inner := make([]int32, n*3)
			p.Claim("", n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
				p.Run("", 3, func(j int) { atomic.AddInt32(&inner[3*i+j], 1) })
			})
			for i, h := range hits {
				if h != 1 {
					t.Errorf("workers=%d n=%d: index %d claimed %d times", workers, n, i, h)
				}
			}
			for i, h := range inner {
				if h != 1 {
					t.Errorf("workers=%d n=%d: nested index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
	for _, p := range []*Pool{nil, New(1, nil)} {
		var order []int
		p.Claim("", 6, func(i int) { order = append(order, i) })
		if fmt.Sprint(order) != "[0 1 2 3 4 5]" {
			t.Errorf("workers=%d: Claim order %v, want ascending", p.Workers(), order)
		}
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	p := New(0, nil)
	if got, want := p.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	if got := New(-3, nil).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("New(-3).Workers() = %d, want GOMAXPROCS", got)
	}
	if got := New(5, nil).Workers(); got != 5 {
		t.Errorf("New(5).Workers() = %d, want 5", got)
	}
}

func TestSplitSeedsDeterministicAndDistinct(t *testing.T) {
	a := SplitSeeds(42, 64)
	b := SplitSeeds(42, 64)
	seen := make(map[int64]bool, len(a))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stripe %d: same master seed gave %d and %d", i, a[i], b[i])
		}
		if a[i] < 0 {
			t.Fatalf("stripe %d: negative seed %d (rand.NewSource wants non-negative streams to stay distinct)", i, a[i])
		}
		if seen[a[i]] {
			t.Fatalf("stripe %d: duplicate seed %d", i, a[i])
		}
		seen[a[i]] = true
	}
	c := SplitSeeds(43, 64)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/64 stripe seeds collide between master seeds 42 and 43", same)
	}
}

// TestRunChunkSpans pins the traced fan-out with chunk 0 on the caller:
// every index runs once, and each chunk c emits one "<phase>.chunk" span
// tagged with worker c and its [c·n/w, (c+1)·n/w) range.
func TestRunChunkSpans(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4} {
		for _, n := range []int{1, 5, 16} {
			bus := telemetry.NewBus(256)
			p := New(workers, trace.Wrap(trace.New(bus), nil))
			hits := make([]int32, n)
			p.Run("test.phase", n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Errorf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
			w := min(workers, n)
			events, _, _ := bus.Poll(0, 256)
			got := map[string]bool{}
			for _, ev := range events {
				if ev.Kind != "span" || ev.Name != "test.phase.chunk" {
					continue
				}
				attrs := map[string]string{}
				for _, a := range ev.Attrs {
					attrs[a.Key] = a.Val
				}
				key := attrs["worker"] + ":" + attrs["lo"] + "-" + attrs["hi"]
				if got[key] {
					t.Errorf("workers=%d n=%d: duplicate chunk span %s", workers, n, key)
				}
				got[key] = true
			}
			if len(got) != w {
				t.Errorf("workers=%d n=%d: %d chunk spans, want %d: %v", workers, n, len(got), w, got)
			}
			for c := 0; c < w; c++ {
				key := fmt.Sprintf("%d:%d-%d", c, c*n/w, (c+1)*n/w)
				if !got[key] {
					t.Errorf("workers=%d n=%d: missing chunk span %s in %v", workers, n, key, got)
				}
			}
		}
	}
}
