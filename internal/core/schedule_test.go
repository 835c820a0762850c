package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"serd/internal/blocking"
	"serd/internal/checkpoint"
	"serd/internal/dataset"
	"serd/internal/gan"
	"serd/internal/journal"
	"serd/internal/telemetry"
	"serd/internal/textsynth"
)

// jitterSynth delays every call by a seeded-random few microseconds, so
// the candidate workers finish in a different order from run to run. The
// delay stream is its own: the output must not depend on it.
type jitterSynth struct {
	inner textsynth.Synthesizer
	mu    *sync.Mutex
	r     *rand.Rand
	calls *atomic.Int64
}

func (s jitterSynth) Synthesize(str string, target float64, r *rand.Rand) (string, float64) {
	s.mu.Lock()
	d := time.Duration(s.r.Intn(40)) * time.Microsecond
	s.mu.Unlock()
	time.Sleep(d)
	out, sim := s.inner.Synthesize(str, target, r)
	s.calls.Add(1)
	return out, sim
}

// jitter wraps every synthesizer of synths in one jitterSynth stream; the
// returned counter counts finished calls.
func jitter(synths map[string]textsynth.Synthesizer, seed int64) (map[string]textsynth.Synthesizer, *atomic.Int64) {
	mu, r, calls := &sync.Mutex{}, rand.New(rand.NewSource(seed)), &atomic.Int64{}
	out := make(map[string]textsynth.Synthesizer, len(synths))
	for name, s := range synths {
		out[name] = jitterSynth{inner: s, mu: mu, r: r, calls: calls}
	}
	return out, calls
}

// scheduleRun is what one run must reproduce at any worker count: the
// dataset bytes, the stripped journal, the Result counters and the S2
// counters of adopted attempts.
type scheduleRun struct {
	data     map[string][]byte
	journal  string
	counters [4]float64
	res      *Result
	reg      *telemetry.Registry
}

func (a scheduleRun) equal(t *testing.T, label string, b scheduleRun) {
	t.Helper()
	for _, name := range []string{"A.csv", "B.csv", "matches.csv"} {
		if !bytes.Equal(a.data[name], b.data[name]) {
			t.Errorf("%s: %s differs", label, name)
		}
	}
	if a.journal != b.journal {
		t.Errorf("%s: stripped journal differs", label)
	}
	if a.counters != b.counters {
		t.Errorf("%s: S2 counters (attempts, accepted, rejected by distribution, by discriminator) %v, want %v", label, a.counters, b.counters)
	}
	ra, rb := a.res, b.res
	if ra.JSD != rb.JSD || len(ra.SampledMatchPairs) != len(rb.SampledMatchPairs) ||
		ra.RejectedByDistribution != rb.RejectedByDistribution || ra.RejectedByDiscriminator != rb.RejectedByDiscriminator {
		t.Errorf("%s: Result counters differ: JSD %v/%v sampled %d/%d rejected %d+%d/%d+%d", label,
			ra.JSD, rb.JSD, len(ra.SampledMatchPairs), len(rb.SampledMatchPairs),
			ra.RejectedByDistribution, ra.RejectedByDiscriminator, rb.RejectedByDistribution, rb.RejectedByDiscriminator)
	}
}

// runSchedule synthesizes er with opts, journaled and recorded, and
// collects what TestScheduleInvariance compares.
func runSchedule(t *testing.T, ctx context.Context, er *dataset.ER, opts Options) (scheduleRun, error) {
	t.Helper()
	var buf bytes.Buffer
	jr := journal.New(&buf)
	reg := telemetry.NewRegistry()
	opts.Journal = jr
	opts.Metrics = journal.Instrument(jr, reg)
	res, err := Synthesize(ctx, er, opts)
	if err != nil {
		return scheduleRun{reg: reg}, err
	}
	dir := t.TempDir()
	if err := dataset.SaveDir(dir, res.Syn); err != nil {
		t.Fatal(err)
	}
	run := scheduleRun{data: make(map[string][]byte), journal: stripJournal(t, buf.Bytes()), res: res, reg: reg}
	for _, name := range []string{"A.csv", "B.csv", "matches.csv"} {
		if run.data[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	c := reg.Snapshot().Counters
	run.counters = [4]float64{c["core.s2.attempts"], c["core.s2.accepted"], c["core.s2.rejected.distribution"], c["core.s2.rejected.discriminator"]}
	return run, nil
}

// stripJournal drops the wall-clock fields (timestamps, durations) of
// every journal event, keeping everything else — hash chain included.
func stripJournal(t *testing.T, data []byte) string {
	t.Helper()
	var out strings.Builder
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		delete(m, "ts")
		delete(m, "dur_s")
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.String()
}

// fixtureGAN trains a small GAN on er's A rows, for the discriminator
// rejection check.
func fixtureGAN(t *testing.T, er *dataset.ER) *gan.GAN {
	t.Helper()
	enc, err := gan.NewEncoder(er.Schema(), []*dataset.Relation{er.A, er.B}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, e := range er.A.Entities {
		rows = append(rows, e.Values)
	}
	g, err := gan.Train(context.Background(), enc, rows, gan.Options{Epochs: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestScheduleInvariance pins S2's determinism contract across worker
// counts: candidates synthesized ahead on 1, 2, 3 or 8 workers, finishing
// in jittered order, leave the dataset bytes, the stripped journal and
// every counter equal — with Eq. 10 rejection, without rejection, with a
// discriminator, and with blocked S3.
func TestScheduleInvariance(t *testing.T) {
	gen, synths := fixture(t, 30, 30, 12)
	g := fixtureGAN(t, gen.ER)
	titleIdx := gen.ER.Schema().ColumnIndex("title")
	for _, cfg := range []struct {
		name string
		arm  func(*Options)
		// exercised checks the path the row is for was taken.
		exercised func(*Result) bool
	}{
		{"reject", func(*Options) {}, func(r *Result) bool { return r.RejectedByDistribution > 0 }},
		{"no-reject", func(o *Options) { o.DisableRejection = true }, func(r *Result) bool {
			return r.RejectedByDistribution+r.RejectedByDiscriminator == 0
		}},
		{"discriminator", func(o *Options) { o.GAN, o.Beta = g, 0.5 }, func(r *Result) bool { return r.RejectedByDiscriminator > 0 }},
		{"blocked", func(o *Options) { o.S3Blocker = blocking.QGram{Column: titleIdx} }, func(r *Result) bool { return r.RejectedByDistribution > 0 }},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			var base scheduleRun
			for _, workers := range []int{1, 2, 3, 8} {
				js, _ := jitter(synths, int64(workers))
				opts := Options{Synthesizers: js, SizeA: 24, SizeB: 24, Seed: 41, Workers: workers}
				cfg.arm(&opts)
				run, err := runSchedule(t, context.Background(), gen.ER, opts)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					base = run
					if !cfg.exercised(run.res) {
						t.Fatalf("the run does not exercise the row's path: %+v", run.res)
					}
					continue
				}
				run.equal(t, fmt.Sprintf("workers %d", workers), base)
			}
		})
	}
}

// TestScheduleCancelInFlightResume cancels a two-worker run while the
// second worker has candidates ahead of the chain, then resumes it from
// the cancel's checkpoint: the dropped candidates are recomputed from the
// seed and the committed pools, so the result equals an uninterrupted run.
func TestScheduleCancelInFlightResume(t *testing.T) {
	gen, synths := fixture(t, 30, 30, 12)
	opts := Options{Synthesizers: synths, SizeA: 24, SizeB: 24, Seed: 43, Workers: 2}
	want, err := runSchedule(t, context.Background(), gen.ER, Options{Synthesizers: synths, SizeA: 24, SizeB: 24, Seed: 43, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cp, err := checkpoint.New(checkpoint.Config{Dir: dir, Every: 10, Tool: "serd", Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	js, calls := jitter(synths, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	copts := opts
	copts.Synthesizers = js
	copts.Checkpoint = cp
	copts.Progress = func(done, total int) {
		if done != 20 {
			return
		}
		// The chain is held here, so any call that finishes meanwhile is
		// the other worker's, synthesizing a later entity ahead.
		from := calls.Load()
		for deadline := time.Now().Add(2 * time.Second); calls.Load() == from && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}
	canceled, err := runSchedule(t, ctx, gen.ER, copts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: err = %v, want context.Canceled", err)
	}
	if n := canceled.reg.Snapshot().Counters["core.s2.candidates_discarded"]; n < 1 {
		t.Fatalf("the cancel dropped %v candidates; the test needs one in flight", n)
	}

	snap, err := checkpoint.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	latest := snap.Latest()
	if latest == nil || latest.S2 == nil {
		t.Fatal("the cancel left no S2 checkpoint")
	}
	ropts := opts
	ropts.Resume = &checkpoint.CoreState{S1: latest.S1, S2: latest.S2}
	got, err := Synthesize(context.Background(), gen.ER, ropts)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	sameSynthesis(t, "resumed", got, want.res)
}
