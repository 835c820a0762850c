package generator

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"serd/internal/parallel"
	"serd/internal/telemetry"
	"serd/internal/trace"
)

func sameVectors(a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vectors, want %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("vector %d has dim %d, want %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return fmt.Errorf("vector %d col %d = %v, want %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

// TestLearningVectorsPoolInvariant pins S1's learning vectors to the
// serial pass at any worker count, with and without hard negatives: X+,
// X− and the random stream left behind are bit-identical. The serial X+
// and uniform X− are themselves checked against Schema.SimVector.
func TestLearningVectorsPoolInvariant(t *testing.T) {
	real := fixture(t)
	for _, noHard := range []bool{false, true} {
		opts := func(pool *parallel.Pool) FitOptions {
			o := FitOptions{Rand: rand.New(rand.NewSource(9)), NoHardNegatives: noHard, Pool: pool}
			return o.WithDefaults(len(real.Matches))
		}
		serialOpts := opts(nil)
		xp, xn, err := LearningVectors(real, serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		next := serialOpts.Rand.Int63()

		schema := real.Schema()
		for i, p := range real.Matches {
			if err := sameVectors(xp[i:i+1], [][]float64{schema.SimVector(real.A.Entities[p.A], real.B.Entities[p.B])}); err != nil {
				t.Fatalf("noHard=%t X+ %d: %v", noHard, i, err)
			}
		}
		uniform := real.NonMatchingPairs(serialOpts.MaxNonMatching, rand.New(rand.NewSource(9)))
		for i, p := range uniform {
			if err := sameVectors(xn[i:i+1], [][]float64{schema.SimVector(real.A.Entities[p.A], real.B.Entities[p.B])}); err != nil {
				t.Fatalf("noHard=%t X− %d: %v", noHard, i, err)
			}
		}
		if hard := len(xn) > len(uniform); hard == noHard {
			t.Fatalf("noHard=%t: %d X− vectors from %d uniform pairs", noHard, len(xn), len(uniform))
		}

		for _, workers := range []int{1, 2, 4} {
			o := opts(parallel.New(workers, nil))
			gotP, gotN, err := LearningVectors(real, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameVectors(gotP, xp); err != nil {
				t.Errorf("noHard=%t workers=%d X+: %v", noHard, workers, err)
			}
			if err := sameVectors(gotN, xn); err != nil {
				t.Errorf("noHard=%t workers=%d X−: %v", noHard, workers, err)
			}
			if got := o.Rand.Int63(); got != next {
				t.Errorf("noHard=%t workers=%d: random stream moved (next draw %d, serial %d)", noHard, workers, got, next)
			}
		}
	}
}

// TestLearningVectorsCandidatesSpan checks the trace of S1's
// hard-negative mining: a "generator.candidates" span carrying the
// blocker's candidate count, and the pooled probe's chunks under their
// own pool phase, one per worker.
func TestLearningVectorsCandidatesSpan(t *testing.T) {
	real := fixture(t)
	want, err := DefaultBlocker(real.Schema()).Candidates(real.A, real.B)
	if err != nil {
		t.Fatal(err)
	}
	bus := telemetry.NewBus(1 << 12)
	reg := telemetry.NewRegistry()
	rec := trace.Wrap(trace.New(bus), reg)
	opts := FitOptions{Rand: rand.New(rand.NewSource(9)), Metrics: rec, Pool: parallel.New(2, rec)}
	if _, _, err := LearningVectors(real, opts.WithDefaults(len(real.Matches))); err != nil {
		t.Fatal(err)
	}
	evs, _, _ := bus.Poll(0, int(bus.Cap()))
	spans, chunks := 0, map[string]bool{}
	for _, ev := range evs {
		switch ev.Name {
		case "generator.candidates":
			spans++
			if len(ev.Attrs) != 1 || ev.Attrs[0].Key != "candidates" || ev.Attrs[0].Val != strconv.Itoa(len(want)) {
				t.Errorf("generator.candidates attrs = %+v, want candidates=%d", ev.Attrs, len(want))
			}
		case "blocking.qgram.chunk":
			for _, a := range ev.Attrs {
				if a.Key == "worker" {
					chunks[a.Val] = true
				}
			}
		}
	}
	if spans != 1 {
		t.Errorf("%d generator.candidates spans, want 1", spans)
	}
	if len(chunks) != 2 {
		t.Errorf("blocking.qgram chunks ran on workers %v, want 0 and 1", chunks)
	}
	if _, ok := reg.Snapshot().Gauges["blocking.qgram.parallel.utilization"]; !ok {
		t.Error("no blocking.qgram.parallel.utilization gauge")
	}
}
