package gan

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"serd/internal/telemetry"
)

// cancelAfterSteps cancels a context after n adversarial steps (counted
// via the gan.train.steps counter, which ticks once per completed step).
type cancelAfterSteps struct {
	telemetry.Recorder
	mu     sync.Mutex
	after  int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfterSteps) Add(name string, v float64) {
	if name == "gan.train.steps" {
		c.mu.Lock()
		c.seen++
		if c.seen == c.after {
			c.cancel()
		}
		c.mu.Unlock()
	}
	c.Recorder.Add(name, v)
}

func (c *cancelAfterSteps) StartSpan(name string) telemetry.Span { return c.Recorder.StartSpan(name) }

func (c *cancelAfterSteps) steps() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen
}

// TestTrainCancelMidTraining pins per-step cancellation: training returns
// within one adversarial step of the cancel with an error wrapping
// context.Canceled that names the step.
func TestTrainCancelMidTraining(t *testing.T) {
	gen, enc := scholarFixture(t)
	var rows [][]string
	for _, e := range gen.ER.A.Entities {
		rows = append(rows, e.Values)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &cancelAfterSteps{Recorder: telemetry.Nop, after: 2, cancel: cancel}
	_, err := Train(ctx, enc, rows, Options{Epochs: 20, Seed: 7, Metrics: rec})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "gan: canceled at step") {
		t.Fatalf("error %q does not name the canceled step", err)
	}
	if got := rec.steps(); got != 2 {
		t.Fatalf("training ran %d steps past the cancel, want return within one", got-2)
	}
}

// TestTrainNilAndUntriggeredContext pins that a nil context trains to
// completion and an untriggered one is byte-transparent on the weights.
func TestTrainNilAndUntriggeredContext(t *testing.T) {
	gen, enc := scholarFixture(t)
	var rows [][]string
	for _, e := range gen.ER.A.Entities {
		rows = append(rows, e.Values)
	}
	plain, err := Train(nil, enc, rows, Options{Epochs: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	armed, err := Train(ctx, enc, rows, Options{Epochs: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if plain.zDim != armed.zDim || !sameWeights(plain.gen, armed.gen) || !sameWeights(plain.disc, armed.disc) {
		t.Fatal("an untriggered context changed the trained weights")
	}
}

// sameWeights reports whether two networks have the same layer shapes and
// bit-identical weights and biases.
func sameWeights(a, b *mlp) bool {
	pa, pb := a.params(), b.params()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i].Rows != pb[i].Rows || pa[i].Cols != pb[i].Cols || len(pa[i].Data) != len(pb[i].Data) {
			return false
		}
		for k, v := range pa[i].Data {
			if math.Float64bits(v) != math.Float64bits(pb[i].Data[k]) {
				return false
			}
		}
	}
	return true
}
