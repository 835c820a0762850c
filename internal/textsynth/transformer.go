package textsynth

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"serd/internal/checkpoint"
	"serd/internal/detrand"
	"serd/internal/dp"
	"serd/internal/journal"
	"serd/internal/nn"
	"serd/internal/perturb"
	"serd/internal/simfn"
	"serd/internal/telemetry"
	"serd/internal/trace"
	"serd/internal/transformer"
)

// DPOptions enables differentially private training (paper Algorithm 1).
type DPOptions struct {
	// ClipNorm is the per-example gradient bound V.
	ClipNorm float64
	// Noise is the noise multiplier σ.
	Noise float64
	// Delta is the δ at which ε is reported.
	Delta float64
}

// TransformerOptions configures TrainTransformer.
type TransformerOptions struct {
	// Buckets is the number of similarity intervals k (default 10, the
	// paper's setting).
	Buckets int
	// PairsPerBucket is the number of training pairs assembled per bucket
	// (default 120).
	PairsPerBucket int
	// Epochs over each bucket's pairs (default 3).
	Epochs int
	// BatchSize is the minibatch size J (default 8).
	BatchSize int
	// LR is the learning rate (default 1e-3 for Adam, 0.05 for DP-SGD).
	LR float64
	// Model overrides the transformer dimensions; the vocabulary is always
	// built from the corpus.
	Model transformer.Config
	// DP switches training to DP-SGD when non-nil.
	DP *DPOptions
	// Candidates is the number of sampled decodes per synthesis call
	// (default 10, the paper's setting).
	Candidates int
	// Temperature for candidate sampling (default 0.8).
	Temperature float64
	// Metrics receives training telemetry: per-bucket training spans, the
	// loss histogram ("textsynth.train.loss"), throughput
	// ("textsynth.train.chars_per_sec") and — with DP — the live privacy
	// budget via dp.RDPAccountant.RecordEpsilon. Nil disables recording.
	Metrics telemetry.Recorder
	// Privacy, when set with DP training, registers each bucket model's
	// DP-SGD expenditure with the privacy ledger BEFORE that bucket trains
	// (the ε is fully determined by q, σ, steps and δ, so the charge is
	// sound up-front). Buckets share the "textsynth.bank" parallel-
	// composition group: they train on disjoint pair sets, so the bank's
	// cost is the max bucket ε, matching Epsilon(). A ledger with an ε
	// budget in abort mode stops training before the budget would be
	// overspent.
	Privacy *journal.Ledger
	// Checkpoint, when set, saves the training state to disk after each
	// bucket's up-front DP charge and after every completed epoch, so a
	// killed run resumes without repeating (or double-charging) work.
	Checkpoint *checkpoint.Checkpointer
	// Resume continues training from a checkpointed state. Completed
	// buckets are restored instead of retrained; the in-progress bucket
	// continues from its last finished epoch; the RNG streams are
	// fast-forwarded so the result is bit-identical to an uninterrupted
	// run.
	Resume *checkpoint.TrainState
	// Column names the textual column being trained — the checkpoint key.
	Column string
	// Seed drives everything.
	Seed int64
}

func (o TransformerOptions) withDefaults() TransformerOptions {
	if o.Buckets == 0 {
		o.Buckets = 10
	}
	if o.PairsPerBucket == 0 {
		o.PairsPerBucket = 120
	}
	if o.Epochs == 0 {
		o.Epochs = 3
	}
	if o.BatchSize == 0 {
		o.BatchSize = 8
	}
	if o.LR == 0 {
		if o.DP != nil {
			o.LR = 0.05
		} else {
			o.LR = 1e-3
		}
	}
	if o.Candidates == 0 {
		o.Candidates = 10
	}
	if o.Temperature == 0 {
		o.Temperature = 0.8
	}
	o.Metrics = telemetry.OrNop(o.Metrics)
	return o
}

// Pair is one training example for a bucket model.
type Pair struct {
	S, T string
	Sim  float64
}

// BuildPairs assembles similarity-bucketed training pairs from a background
// corpus: it enumerates sampled corpus pairs (which populate the low
// buckets) and augments sparse buckets with edit-walked variants of corpus
// strings (still background-domain text), following §VI's "enumerate the
// strings in pairs, calculate the similarities, divide them into buckets".
func BuildPairs(corpus []string, sim simfn.Func, buckets, perBucket int, r *rand.Rand) [][]Pair {
	out := make([][]Pair, buckets)
	if len(corpus) < 2 {
		return out
	}
	// Pass 1: random corpus pairs.
	budget := buckets * perBucket * 4
	for i := 0; i < budget; i++ {
		a := corpus[r.Intn(len(corpus))]
		b := corpus[r.Intn(len(corpus))]
		if a == b {
			continue
		}
		s := sim.Sim(a, b)
		bk := Bucket(s, buckets)
		if len(out[bk]) < perBucket {
			out[bk] = append(out[bk], Pair{S: a, T: b, Sim: s})
		}
	}
	// Pass 2: fill sparse buckets with perturbation-derived pairs.
	var w perturb.Walker
	for bk := range out {
		center := BucketCenter(bk, buckets)
		attempts := 0
		for len(out[bk]) < perBucket && attempts < perBucket*20 {
			attempts++
			a := corpus[r.Intn(len(corpus))]
			b, s := w.Walk(a, center, 0.05, simfn.BindScorer(sim, a), 150, r)
			if Bucket(s, buckets) == bk && a != b {
				out[bk] = append(out[bk], Pair{S: a, T: b, Sim: s})
			}
		}
	}
	return out
}

// TransformerSynthesizer is the bank of bucketed seq2seq models M_1..M_k of
// §VI with sampling-based candidate generation at inference (Figure 4).
type TransformerSynthesizer struct {
	sim         simfn.Func
	buckets     int
	models      []*transformer.Model
	candidates  int
	temperature float64
	epsilons    []float64
	rand        *rand.Rand
}

// TrainTransformer builds the bucket pair sets from the background corpus
// and trains one model per non-empty bucket, with DP-SGD when opts.DP is
// set. With opts.Checkpoint the training state is saved after every DP
// charge and every epoch; with opts.Resume a checkpointed run continues
// bit-for-bit where it left off.
//
// Cancellation is checked per minibatch (immediate return, discarding the
// partial epoch — the last epoch-boundary save stays the resume point) and
// at bucket/epoch boundaries. A nil context never cancels.
func TrainTransformer(ctx context.Context, corpus []string, sim simfn.Func, opts TransformerOptions) (*TransformerSynthesizer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if sim == nil {
		return nil, errors.New("textsynth: nil similarity function")
	}
	if len(corpus) < 2 {
		return nil, errors.New("textsynth: corpus too small")
	}
	opts = opts.withDefaults()
	res := opts.Resume
	if res != nil && res.Done {
		// The bank finished before the crash: rebuild it, no training.
		return NewFromState(res, sim, opts)
	}
	if res != nil {
		if res.Buckets != opts.Buckets {
			return nil, fmt.Errorf("textsynth: checkpoint has %d buckets, options configure %d", res.Buckets, opts.Buckets)
		}
		if res.EpochsDone > opts.Epochs {
			return nil, fmt.Errorf("textsynth: checkpoint has %d epochs done, options configure %d", res.EpochsDone, opts.Epochs)
		}
		if len(res.Epsilons) != opts.Buckets {
			return nil, fmt.Errorf("textsynth: checkpoint has %d epsilon slots, want %d", len(res.Epsilons), opts.Buckets)
		}
		for bk := range res.Models {
			if bk < 0 || bk >= opts.Buckets {
				return nil, fmt.Errorf("textsynth: checkpoint holds model for out-of-range bucket %d", bk)
			}
		}
	}
	span := opts.Metrics.StartSpan("textsynth.train")
	defer span.End()
	src := detrand.New(opts.Seed)
	r := rand.New(src)
	pairSets := BuildPairs(corpus, sim, opts.Buckets, opts.PairsPerBucket, r)

	vocab := transformer.BuildVocab(corpus)
	ts := &TransformerSynthesizer{
		sim:         sim,
		buckets:     opts.Buckets,
		models:      make([]*transformer.Model, opts.Buckets),
		candidates:  opts.Candidates,
		temperature: opts.Temperature,
		epsilons:    make([]float64, opts.Buckets),
		rand:        r,
	}
	cp := opts.Checkpoint
	st := &checkpoint.TrainState{
		Column:   opts.Column,
		Buckets:  opts.Buckets,
		Models:   make(map[int]*transformer.State),
		Epsilons: make([]float64, opts.Buckets),
	}
	// save checkpoints the in-progress bucket (bucket, epochsDone, model,
	// optimizer and accountant state) along with every bucket finished so
	// far and the trainer RNG position.
	save := func(bucket, epochsDone int, mState *transformer.State, eps float64, acct dp.RDPState, optSteps int) error {
		if cp == nil {
			return nil
		}
		st.NextBucket = bucket
		st.EpochsDone = epochsDone
		if mState != nil {
			st.Models[bucket] = mState
			st.Epsilons[bucket] = eps
		} else {
			delete(st.Models, bucket)
		}
		st.Acct = acct
		st.OptSteps = optSteps
		st.Draws = src.Draws()
		return cp.SaveTrain(st)
	}
	if res != nil {
		// Restore every bucket the checkpoint completed (EpochsDone ==
		// opts.Epochs means NextBucket itself finished its last epoch).
		for bk, ms := range res.Models {
			if ms == nil || bk > res.NextBucket {
				continue
			}
			if bk == res.NextBucket && res.EpochsDone < opts.Epochs {
				continue // mid-training state, restored inside the loop below
			}
			m, err := transformer.FromState(ms)
			if err != nil {
				return nil, fmt.Errorf("textsynth: bucket %d: %w", bk, err)
			}
			m.Metrics = opts.Metrics
			ts.models[bk] = m
			ts.epsilons[bk] = res.Epsilons[bk]
			st.Models[bk] = ms
			st.Epsilons[bk] = res.Epsilons[bk]
		}
		// BuildPairs re-ran deterministically; fast-forward the trainer
		// stream over the draws the pre-crash run made after it (restored
		// buckets' training, the in-progress bucket's finished epochs).
		if err := src.SkipTo(res.Draws); err != nil {
			return nil, fmt.Errorf("textsynth: resume: %w", err)
		}
	}
	for bk, pairs := range pairSets {
		if res != nil && (bk < res.NextBucket || (bk == res.NextBucket && res.EpochsDone >= opts.Epochs)) {
			continue // restored above (or skipped before the crash)
		}
		if len(pairs) < opts.BatchSize {
			continue // too few examples to train a model for this interval
		}
		if stopErr := ctx.Err(); stopErr != nil {
			// The last save (previous bucket's final epoch) already covers
			// everything done so far; nothing new to persist.
			return nil, fmt.Errorf("textsynth: interrupted before bucket %d: %w", bk, stopErr)
		}
		resuming := res != nil && bk == res.NextBucket
		bt := bucketTrain{
			ctx:  ctx,
			acct: dp.RDPState{},
			save: func(epochsDone int, mState *transformer.State, eps float64, acct dp.RDPState, optSteps int) error {
				return save(bk, epochsDone, mState, eps, acct, optSteps)
			},
		}
		if opts.DP != nil {
			bt.acct.Noise = opts.DP.Noise
		}
		cfg := opts.Model
		cfg.Vocab = vocab
		var m *transformer.Model
		var err error
		if resuming && res.EpochsDone > 0 {
			m, err = transformer.FromState(res.Models[bk])
			bt.startEpoch = res.EpochsDone
			bt.optSteps = res.OptSteps
			bt.acct = res.Acct
		} else {
			m, err = transformer.New(cfg, opts.Seed+int64(bk))
		}
		if err != nil {
			return nil, fmt.Errorf("textsynth: bucket %d: %w", bk, err)
		}
		if opts.DP != nil && !resuming {
			// Charge the ledger before training: ε is fully determined by
			// the parameters, and budget enforcement must fire before the
			// budget would be overspent. A full epoch is ceil(N/J) lots:
			// full lots at sampling ratio J/N plus — when J does not divide
			// N — one smaller tail lot at its true (lower) ratio.
			n := len(pairs)
			steps := opts.Epochs * (n / opts.BatchSize)
			q := float64(opts.BatchSize) / float64(n)
			tailSteps, tailQ := 0, 0.0
			if rem := n % opts.BatchSize; rem > 0 {
				tailSteps = opts.Epochs
				tailQ = float64(rem) / float64(n)
			}
			label := fmt.Sprintf("textsynth.bucket%02d", bk)
			if err := opts.Privacy.ChargeSGDLots(label, "textsynth.bank", opts.DP.Noise, steps, q, tailSteps, tailQ, opts.DP.Delta); err != nil {
				return nil, fmt.Errorf("textsynth: bucket %d: %w", bk, err)
			}
			// Persist the charge before training so a crash in between
			// does not double-charge on resume.
			if err := save(bk, 0, nil, 0, bt.acct, 0); err != nil {
				return nil, fmt.Errorf("textsynth: bucket %d: %w", bk, err)
			}
		}
		eps, err := trainOne(m, pairs, opts, r, bt)
		if err != nil {
			return nil, fmt.Errorf("textsynth: bucket %d: %w", bk, err)
		}
		m.Metrics = opts.Metrics
		ts.models[bk] = m
		ts.epsilons[bk] = eps
		opts.Metrics.Add("textsynth.train.buckets", 1)
	}
	for _, m := range ts.models {
		if m != nil {
			return ts, nil
		}
	}
	return nil, errors.New("textsynth: no bucket had enough training pairs")
}

// bucketTrain carries one bucket's resume position, cancellation context
// and checkpoint hook into trainOne.
type bucketTrain struct {
	// ctx is checked per minibatch: a canceled context returns
	// immediately, discarding the partial epoch (the last epoch-boundary
	// save remains the resume point). It is checked again at each epoch
	// boundary, after the save. Nil disables the checks.
	ctx context.Context
	// startEpoch is the first epoch still to run (0 on a fresh bucket).
	startEpoch int
	// optSteps restores the DP-SGD applied-update counter.
	optSteps int
	// acct restores (or seeds) the bucket's RDP accountant.
	acct dp.RDPState
	// save persists the state after each completed epoch; nil disables.
	save func(epochsDone int, mState *transformer.State, eps float64, acct dp.RDPState, optSteps int) error
}

// canceled reports the context's error, tolerating a nil context.
func (bt bucketTrain) canceled() error {
	if bt.ctx == nil {
		return nil
	}
	return bt.ctx.Err()
}

// trainOne trains a single bucket model (Algorithm 1 when DP is enabled)
// and returns the ε consumed (or +Inf without DP — no guarantee claimed).
// Each epoch visits every pair once in a fresh permutation, sliced into
// lots of BatchSize; the final lot of an epoch may be smaller, and with DP
// it is accounted at its true (lower) sampling ratio.
func trainOne(m *transformer.Model, pairs []Pair, opts TransformerOptions, r *rand.Rand, bt bucketTrain) (float64, error) {
	m.SetTrain(true)
	defer m.SetTrain(false)
	rec := opts.Metrics
	span := rec.StartSpan("textsynth.train.bucket")
	start := time.Now()
	chars := 0
	n := len(pairs)
	// example runs one teacher-forced forward+backward pass and records the
	// loss trajectory plus the character volume behind chars/sec.
	example := func(p Pair) {
		loss := m.Loss(p.S, p.T)
		loss.Backward()
		rec.Observe("textsynth.train.loss", loss.Data[0])
		chars += len(p.S) + len(p.T)
	}
	finish := func() {
		span.End()
		rec.Add("textsynth.train.chars", float64(chars))
		if elapsed := time.Since(start).Seconds(); elapsed > 0 {
			rec.Set("textsynth.train.chars_per_sec", float64(chars)/elapsed)
		}
	}
	if opts.DP != nil {
		o, err := dp.NewSGD(m.Params(), opts.LR, opts.DP.ClipNorm, opts.DP.Noise, r)
		if err != nil {
			return 0, err
		}
		o.Metrics = rec
		o.RestoreSteps(bt.optSteps)
		acct := dp.RDPFromState(bt.acct)
		tr := trace.FromRecorder(rec) // nil when tracing is disarmed
		for epoch := bt.startEpoch; epoch < opts.Epochs; epoch++ {
			perm := r.Perm(n)
			for i := 0; i < n; i += opts.BatchSize {
				if err := bt.canceled(); err != nil {
					// Prompt return within one minibatch; the partial epoch
					// is discarded and the last epoch-boundary save resumes
					// the bucket from this epoch's start.
					return 0, fmt.Errorf("textsynth: canceled in epoch %d/%d: %w", epoch+1, opts.Epochs, err)
				}
				end := i + opts.BatchSize
				if end > n {
					end = n
				}
				var lotSpan *trace.Child
				if tr != nil {
					lotSpan = tr.Child("textsynth.train.minibatch",
						trace.Int("epoch", epoch), trace.Int("lot", i/opts.BatchSize), trace.Int("size", end-i))
				}
				for _, pi := range perm[i:end] {
					example(pairs[pi])
					o.AccumulateExample()
				}
				if err := o.Step(); err != nil {
					return 0, err
				}
				acct.Account(float64(end-i) / float64(n))
				acct.RecordEpsilon(rec, opts.DP.Delta)
				if lotSpan != nil {
					lotSpan.End(trace.Float("epsilon", acct.Epsilon(opts.DP.Delta)))
				}
			}
			if bt.save != nil {
				eps := acct.Epsilon(opts.DP.Delta)
				if err := bt.save(epoch+1, m.State(), eps, acct.State(), o.Steps()); err != nil {
					return 0, err
				}
			}
		}
		finish()
		return acct.Epsilon(opts.DP.Delta), nil
	}
	if bt.startEpoch > 0 {
		return 0, errors.New("textsynth: checkpoint holds mid-bucket DP-SGD state but DP training is off")
	}
	opt := nn.NewAdam(opts.LR)
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		perm := r.Perm(n)
		for i := 0; i < n; i += opts.BatchSize {
			if err := bt.canceled(); err != nil {
				return 0, fmt.Errorf("textsynth: canceled in epoch %d/%d: %w", epoch+1, opts.Epochs, err)
			}
			end := i + opts.BatchSize
			if end > n {
				end = n
			}
			nn.ZeroGrads(m.Params())
			for _, pi := range perm[i:end] {
				example(pairs[pi])
			}
			opt.Step(m.Params())
		}
	}
	// Adam's moment vectors are not checkpointable, so non-DP training
	// saves only at bucket boundaries (EpochsDone == Epochs).
	if bt.save != nil {
		if err := bt.save(opts.Epochs, m.State(), math.Inf(1), dp.RDPState{}, 0); err != nil {
			return 0, err
		}
	}
	finish()
	return math.Inf(1), nil
}

// NewFromState rebuilds a synthesizer from a completed (Done) training
// checkpoint without retraining: models are restored bit-exactly via
// transformer.FromState and no DP cost is re-charged — the pre-crash run
// already paid (and journaled) it.
func NewFromState(st *checkpoint.TrainState, sim simfn.Func, opts TransformerOptions) (*TransformerSynthesizer, error) {
	if sim == nil {
		return nil, errors.New("textsynth: nil similarity function")
	}
	if st == nil || !st.Done {
		return nil, errors.New("textsynth: checkpoint does not hold a completed transformer bank")
	}
	opts = opts.withDefaults()
	if st.Buckets != opts.Buckets {
		return nil, fmt.Errorf("textsynth: checkpoint has %d buckets, options configure %d", st.Buckets, opts.Buckets)
	}
	ts := &TransformerSynthesizer{
		sim:         sim,
		buckets:     st.Buckets,
		models:      make([]*transformer.Model, st.Buckets),
		candidates:  opts.Candidates,
		temperature: opts.Temperature,
		epsilons:    make([]float64, st.Buckets),
		rand:        rand.New(rand.NewSource(opts.Seed)),
	}
	copy(ts.epsilons, st.Epsilons)
	any := false
	for bk, ms := range st.Models {
		if ms == nil {
			continue
		}
		if bk < 0 || bk >= st.Buckets {
			return nil, fmt.Errorf("textsynth: checkpoint holds model for out-of-range bucket %d", bk)
		}
		m, err := transformer.FromState(ms)
		if err != nil {
			return nil, fmt.Errorf("textsynth: bucket %d: %w", bk, err)
		}
		m.Metrics = opts.Metrics
		ts.models[bk] = m
		any = true
	}
	if !any {
		return nil, errors.New("textsynth: checkpoint holds no trained bucket models")
	}
	return ts, nil
}

// CheckpointState captures the completed bank as a Done training
// checkpoint: the terminal state written once training finishes, so a
// crash during the later synthesis phases resumes without retraining.
func (ts *TransformerSynthesizer) CheckpointState(column string) *checkpoint.TrainState {
	st := &checkpoint.TrainState{
		Column:     column,
		Buckets:    ts.buckets,
		Done:       true,
		NextBucket: ts.buckets,
		Models:     make(map[int]*transformer.State),
		Epsilons:   append([]float64(nil), ts.epsilons...),
	}
	for bk, m := range ts.models {
		if m != nil {
			st.Models[bk] = m.State()
		}
	}
	return st
}

// Synthesize implements Synthesizer: route to the bucket model for the
// target, decode Candidates samples, return the one whose similarity is
// closest to the target (§VI inference).
func (ts *TransformerSynthesizer) Synthesize(s string, target float64, r *rand.Rand) (string, float64) {
	m := ts.modelFor(target)
	best, bestSim := s, ts.sim.Sim(s, s)
	for i := 0; i < ts.candidates; i++ {
		c := m.Generate(s, ts.temperature, r)
		if c == "" {
			continue
		}
		cs := ts.sim.Sim(s, c)
		if math.Abs(cs-target) < math.Abs(bestSim-target) {
			best, bestSim = c, cs
		}
	}
	return best, bestSim
}

// modelFor returns the trained model nearest to the target's bucket.
func (ts *TransformerSynthesizer) modelFor(target float64) *transformer.Model {
	want := Bucket(target, ts.buckets)
	if ts.models[want] != nil {
		return ts.models[want]
	}
	for d := 1; d < ts.buckets; d++ {
		if i := want - d; i >= 0 && ts.models[i] != nil {
			return ts.models[i]
		}
		if i := want + d; i < ts.buckets && ts.models[i] != nil {
			return ts.models[i]
		}
	}
	return nil // unreachable: TrainTransformer guarantees one model
}

// Epsilon returns the largest per-bucket ε consumed by training — the
// guarantee reported for the whole bank (buckets are disjoint training
// sets, so parallel composition applies and the max governs).
func (ts *TransformerSynthesizer) Epsilon() float64 {
	eps := 0.0
	for i, m := range ts.models {
		if m != nil && ts.epsilons[i] > eps {
			eps = ts.epsilons[i]
		}
	}
	return eps
}
