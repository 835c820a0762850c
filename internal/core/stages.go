package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"serd/internal/blocking"
	"serd/internal/checkpoint"
	"serd/internal/dataset"
	"serd/internal/detrand"
	"serd/internal/generator"
	"serd/internal/journal"
	"serd/internal/parallel"
	"serd/internal/pipeline"
	"serd/internal/telemetry"
	"serd/internal/trace"
)

// s2BlockSpanEvery is the accepted-entity granularity of S2's trace block
// spans: coarse enough that tracing adds no per-entity overhead at 1M
// entities, fine enough to localize a slowdown within the stage.
const s2BlockSpanEvery = 64

// synthRun is the mutable state of one Synthesize call, shared by the
// pipeline stages.
type synthRun struct {
	real *dataset.ER
	opts Options
	// matchFraction is the probability of drawing S2-2's similarity
	// vector from the M-distribution (see matchFraction).
	matchFraction float64

	src  *detrand.Source
	r    *rand.Rand
	rec  telemetry.Recorder
	pool *parallel.Pool
	cp   *checkpoint.Checkpointer

	// resS1/resS2 carry the resume states; the later checkpoint wins.
	resS1 *checkpoint.S1State
	resS2 *checkpoint.S2State

	oReal      generator.Dist
	vs         *valueSynth
	synA, synB *dataset.Relation
	// preps holds each entity pool prepped by position, for S2's delta
	// vectors and S3's labeling; S2 appends every accepted entity.
	preps map[*dataset.Relation]*dataset.Preps
	res   *Result
	dist  *distState
	// pl plans S2's entities; sampled holds the labels of the pairs the
	// committed entities formed (see record).
	pl      *planner
	sampled map[dataset.Pair]bool
	matches []dataset.Pair
}

// Synthesize runs the full SERD pipeline (Figure 3) on the real dataset.
//
// Cancellation: ctx is checked inside each stage, at S2-entity /
// S3-chunk / EM-iteration granularity. A canceled run returns
// ctx.Err() wrapped in a *pipeline.StageError naming the interrupted
// stage, after writing a final checkpoint at the stages that have one
// (S2's entity pools, which also serve a mid-S3 cancel). A never-canceled
// ctx is a true no-op: dataset bytes and stripped journal bytes are
// identical to a context.Background() run.
func Synthesize(ctx context.Context, real *dataset.ER, opts Options) (*Result, error) {
	if real == nil {
		return nil, errors.New("core: nil dataset")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults(real)
	if opts.SizeA < 1 || opts.SizeB < 1 {
		return nil, fmt.Errorf("core: synthesized sizes %d/%d must be positive", opts.SizeA, opts.SizeB)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	st := &synthRun{
		real:          real,
		opts:          opts,
		matchFraction: matchFraction(real, opts.SizeA, opts.SizeB),
		src:           detrand.New(opts.Seed),
		rec:           opts.Metrics,
		cp:            opts.Checkpoint,
	}
	st.r = rand.New(st.src)
	st.pool = parallel.New(opts.Workers, st.rec)
	if opts.Resume != nil {
		// The later checkpoint wins: an S2 state subsumes the S1 one.
		st.resS2 = opts.Resume.S2
		if st.resS2 == nil {
			st.resS1 = opts.Resume.S1
		}
	}
	if st.resS1 == nil && st.resS2 == nil {
		// Workers is deliberately absent from the journaled config: the
		// journal records what was computed, and the worker count never
		// changes that. On resume the journal prefix already holds the
		// config (and the S1 events), so nothing is re-emitted.
		opts.Journal.Config("core.options", map[string]string{
			"size_a":         fmt.Sprint(opts.SizeA),
			"size_b":         fmt.Sprint(opts.SizeB),
			"match_fraction": fmt.Sprintf("%.6g", st.matchFraction),
			"alpha":          fmt.Sprintf("%g", opts.Alpha),
			"beta":           fmt.Sprintf("%g", opts.Beta),
			"rejection":      fmt.Sprint(!opts.DisableRejection),
			"seed":           fmt.Sprint(opts.Seed),
		})
		if opts.Learned == nil {
			// Record which backend produced O_real (a supplied joint
			// skips the fit, so no backend did).
			opts.Journal.Config("core.generator", map[string]string{
				"backend":  opts.Generator.Name(),
				"describe": opts.Generator.Describe(),
			})
		}
	}
	if err := st.run(ctx); err != nil {
		return nil, err
	}
	return st.res, nil
}

// run executes the pipeline's stages in order: S1 (or, on resume, the
// silent restore of O_real from the checkpoint), the post-S1 checkpoint,
// the silent S2 setup, S2 unless the restored pools are already complete
// (a mid-S3 cancel, where re-entering S2 would journal a duplicate phase
// pair), S3 and the silent finalization.
func (st *synthRun) run(ctx context.Context) error {
	resumed := st.resS1 != nil || st.resS2 != nil
	s1 := st.runS1
	if resumed {
		s1 = st.restoreS1
	}
	if err := st.stage(ctx, "core.s1", resumed, s1); err != nil {
		return err
	}
	if !resumed && st.cp != nil {
		// After the core.s1 span has ended, so the checkpoint's journal
		// seam includes the s1 phase_end event (DESIGN §10).
		if err := st.saveS1(); err != nil {
			return pipeline.Interrupted("core.s1", fmt.Errorf("pipeline: stage %q save: %w", "core.s1", err))
		}
	}
	if err := st.stage(ctx, "core.setup", true, st.runSetup); err != nil {
		return err
	}
	if !st.s2Complete() {
		if err := st.stage(ctx, "core.s2", false, st.runS2); err != nil {
			return err
		}
	}
	if err := st.stage(ctx, "core.s3", false, st.runS3); err != nil {
		return err
	}
	return st.stage(ctx, "core.finalize", true, st.runFinalize)
}

// stage runs one stage body. A non-silent stage runs inside its span,
// which journal.Instrument turns into the journaled phase_start/phase_end
// pair; a silent stage instead gets a trace-only phase, so the registry
// and the journal never see it (the resume invariant of DESIGN §10) while
// the trace tree still covers the run's full wall-clock. A failed body
// leaves its span open — the journal then records phase_start without
// phase_end, the shape journal.OpenPhases and InstrumentResumed expect on
// resume — and a cancellation-class error comes back naming the stage.
func (st *synthRun) stage(ctx context.Context, name string, silent bool, body func(context.Context) error) error {
	var span telemetry.Span
	var phase *trace.Phase
	if silent {
		phase = trace.FromRecorder(st.rec).StartPhase(name)
	} else {
		span = st.rec.StartSpan(name)
	}
	if err := body(ctx); err != nil {
		return pipeline.Interrupted(name, err)
	}
	if span != nil {
		span.End()
	}
	phase.End()
	return nil
}

// restoreS1 is the S1 of a resumed run: O_real rides in the checkpoint,
// and the journal prefix already holds the s1 phase events. An S1-only
// state also fast-forwards the RNG stream past S1's draws; an S2 state
// restores its own stream position in runSetup.
func (st *synthRun) restoreS1(context.Context) error {
	var err error
	if st.resS2 != nil {
		st.oReal, err = st.restoreDist(st.resS2.Backend, st.resS2.Gen)
		return err
	}
	if st.oReal, err = st.restoreDist(st.resS1.Backend, st.resS1.Gen); err != nil {
		return err
	}
	if err := st.src.SkipTo(st.resS1.Draws); err != nil {
		return fmt.Errorf("core: resume: %w", err)
	}
	return nil
}

// saveS1 checkpoints the learned O_real with the RNG stream position.
func (st *synthRun) saveS1() error {
	s := &checkpoint.S1State{Draws: st.src.Draws()}
	var err error
	if s.Backend, s.Gen, err = st.distSnapshot(); err != nil {
		return err
	}
	return st.cp.SaveS1(s)
}

// distSnapshot captures st.oReal for a checkpoint as the backend-tagged
// gob payload.
func (st *synthRun) distSnapshot() (backend string, gen []byte, err error) {
	gen, err = st.opts.Generator.State(st.oReal)
	if err != nil {
		return "", nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	return st.opts.Generator.Name(), gen, nil
}

// restoreDist rebuilds O_real from a checkpoint's backend-tagged payload,
// refusing a mixed-backend resume: a checkpoint written by one S1 backend
// cannot continue under another, because the restored distribution would
// disagree with the journaled prefix. An untagged checkpoint comes from a
// build whose default S1 path wrote a different payload shape.
func (st *synthRun) restoreDist(backend string, gen []byte) (generator.Dist, error) {
	if backend == "" {
		return nil, errors.New("core: resume: checkpoint has no S1 backend tag (written by an older build); restart fresh without -resume")
	}
	if name := st.opts.Generator.Name(); name != backend {
		return nil, fmt.Errorf("core: resume: checkpoint was written by generator backend %q but the run is configured with -s1-generator %s; resume with the original backend or restart fresh", backend, name)
	}
	oReal, err := st.opts.Generator.FromState(gen)
	if err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	return oReal, nil
}

// runS1 learns O_real (paper §IV-A) on a fresh run with the configured
// generator backend.
func (st *synthRun) runS1(ctx context.Context) error {
	if st.opts.Learned != nil {
		st.oReal = st.opts.Learned
		return nil
	}
	learn := st.opts.Learn
	if learn.Rand == nil {
		learn.Rand = rand.New(rand.NewSource(st.opts.Seed + 1))
	}
	if learn.Metrics == nil {
		learn.Metrics = st.rec
	}
	if learn.Journal == nil {
		learn.Journal = st.opts.Journal
	}
	if learn.Pool == nil {
		learn.Pool = st.pool
	}
	if learn.Privacy == nil {
		learn.Privacy = st.opts.Privacy
	}
	oReal, err := st.opts.Generator.Fit(ctx, st.real, learn)
	if err != nil {
		return err
	}
	st.oReal = oReal
	return nil
}

// runSetup validates O_real against the schema and prepares the S2 state:
// value synthesizers, the planner and the entity pools — restored from a
// mid-S2 checkpoint (with the RNG stream fast-forwarded and the sampled
// labels replayed from the plans) or bootstrapped with the first fake
// A-entity — and their preps.
func (st *synthRun) runSetup(context.Context) error {
	if st.oReal.Dim() != st.real.Schema().Len() {
		return fmt.Errorf("core: O_real dim %d does not match schema arity %d", st.oReal.Dim(), st.real.Schema().Len())
	}
	vs, err := newValueSynth(st.real, st.opts.Synthesizers)
	if err != nil {
		return err
	}
	st.vs = vs
	schema := st.real.Schema()
	st.synA = dataset.NewRelation("A_syn", schema)
	st.synB = dataset.NewRelation("B_syn", schema)
	st.res = &Result{OReal: st.oReal}
	// The ΔX vectors and the Eq. 10 JSD run on the chain as plain loops
	// while the pool's other workers synthesize candidates; only the
	// O_syn refit's EM fans out on the pool.
	st.dist = newDistState(st.oReal, st.opts, st.pool)
	st.pl = newPlanner(st)
	st.sampled = make(map[dataset.Pair]bool)

	if st.resS2 != nil {
		// Mid-S2 resume: restore the entity pools, rejection state and
		// counters, then fast-forward the main RNG stream past the
		// bootstrap entity. S2's own draws are keyed by entity and attempt,
		// so the restored pools say where they resume.
		if err := restoreS2(st.resS2, st.synA, st.synB, st.res, st.dist); err != nil {
			return fmt.Errorf("core: resume: %w", err)
		}
		if err := st.src.SkipTo(st.resS2.Draws); err != nil {
			return fmt.Errorf("core: resume: %w", err)
		}
		// The plans are a function of the seed and the earlier plans, so
		// replaying them over the restored pools rebuilds the sampled
		// labels. It runs here, not in S2, which a mid-S3 resume skips.
		for st.pl.lenA+st.pl.lenB < st.synA.Len()+st.synB.Len() {
			st.record(st.pl.next())
		}
		if st.pl.lenA != st.synA.Len() || st.pl.lenB != st.synB.Len() {
			return fmt.Errorf("core: resume: checkpointed pools %d/%d do not match the replayed plans %d/%d",
				st.synA.Len(), st.synB.Len(), st.pl.lenA, st.pl.lenB)
		}
		// Replay the restored pools into the stream: the resumed process
		// starts a fresh output, so the rows accepted before the
		// checkpoint must reach it before S2 appends new ones.
		if st.opts.Stream != nil {
			for _, e := range st.synA.Entities {
				if err := st.opts.Stream.AppendA(e); err != nil {
					return err
				}
			}
			for _, e := range st.synB.Entities {
				if err := st.opts.Stream.AppendB(e); err != nil {
					return err
				}
			}
		}
	} else {
		// S2 bootstrap: one fake A-entity.
		first, err := bootstrap(st.vs, st.real, st.opts, st.r)
		if err != nil {
			return err
		}
		if err := st.synA.Append(first); err != nil {
			return err
		}
		if err := st.streamEntity(true, first); err != nil {
			return err
		}
	}
	st.preps = map[*dataset.Relation]*dataset.Preps{
		st.synA: dataset.NewPreps(schema, st.synA.Entities, st.pool, ""),
		st.synB: dataset.NewPreps(schema, st.synB.Entities, st.pool, ""),
	}
	return nil
}

// record notes the label of the pair the entity committed under plan p
// formed: S3 skips the pair, and a sampled match joins
// Result.SampledMatchPairs.
func (st *synthRun) record(p s2Plan) {
	pair := p.pair()
	st.sampled[pair] = p.matching
	if p.matching {
		st.res.SampledMatchPairs = append(st.res.SampledMatchPairs, pair)
	}
}

// streamEntity forwards one accepted entity to the stream writer, if any.
func (st *synthRun) streamEntity(toA bool, e *dataset.Entity) error {
	if st.opts.Stream == nil {
		return nil
	}
	if toA {
		return st.opts.Stream.AppendA(e)
	}
	return st.opts.Stream.AppendB(e)
}

// s2Complete reports whether the restored pools already hold every
// entity — the mid-S3-cancel resume, where re-running (even re-entering)
// S2 would journal a duplicate phase pair.
func (st *synthRun) s2Complete() bool {
	return st.resS2 != nil && st.synA != nil &&
		st.synA.Len() >= st.opts.SizeA && st.synB.Len() >= st.opts.SizeB
}

// saveS2 checkpoints the full mid-S2 position; it reads the live state
// but never the RNG stream, so saving does not perturb the run.
func (st *synthRun) saveS2() error {
	if st.cp == nil {
		return nil
	}
	s2 := captureS2(st.synA, st.synB, st.res, st.dist, st.src.Draws())
	var err error
	if s2.Backend, s2.Gen, err = st.distSnapshot(); err != nil {
		return err
	}
	return st.cp.SaveS2(s2)
}

// runS2 is the S2 synthesis loop, the chain: one new entity per
// iteration, with the context's cancel check at the top of every
// iteration, so cancellation returns within one entity's work and always
// behind a final checkpoint. Each entity's plan and each attempt's draws
// come from their own substreams (see ahead.go). The pool's other workers
// synthesize candidates ahead; the chain alone runs the discriminator,
// the ΔX vectors, Eq. 10 and the commit, in (entity, attempt) order, so
// the output is the same at any worker count. At one worker there are no
// other workers, and the chain computes each candidate it adopts inline.
func (st *synthRun) runS2(ctx context.Context) error {
	opts := st.opts
	rec := st.rec
	synA, synB := st.synA, st.synB
	res := st.res
	dist := st.dist

	s2Start := time.Now()
	totalTarget := opts.SizeA + opts.SizeB
	// Throughput counts only the entities this process accepts: a resumed
	// run enters S2 with the checkpointed pools already filled.
	entryDone := synA.Len() + synB.Len()
	rec.Set("core.s2.total", float64(totalTarget))
	// Trace block spans: S2 is one long loop, so the tree gets a child
	// span per s2BlockSpanEvery accepted entities carrying the block's
	// accept/reject counts. Disarmed (tr == nil) this is a nil check per
	// entity — the per-attempt hot path is untouched either way.
	tr := trace.FromRecorder(rec)
	var block *trace.Child
	var blockFrom, blockRejFrom int
	rejected := func() int { return res.RejectedByDiscriminator + res.RejectedByDistribution }
	closeBlock := func(done int) {
		if block != nil {
			block.End(trace.Int("accepted", done-blockFrom), trace.Int("rejected", rejected()-blockRejFrom))
			block = nil
		}
	}
	every := 0
	if st.cp != nil {
		every = st.cp.Every()
	}
	lastSaved := synA.Len() + synB.Len()

	ah := st.startAhead(st.pool.Workers())
	defer ah.stop()

	// S2 loop: one new entity per iteration.
	for synA.Len() < opts.SizeA || synB.Len() < opts.SizeB {
		done := synA.Len() + synB.Len()
		if tr != nil && block == nil {
			blockFrom, blockRejFrom = done, rejected()
			block = tr.Child("core.s2.block", trace.Int("from", done))
		}
		if stopErr := ctx.Err(); stopErr != nil {
			if err := st.saveS2(); err != nil {
				return err
			}
			return fmt.Errorf("core: s2 interrupted at %d/%d entities: %w", done, totalTarget, stopErr)
		}
		if every > 0 && done%every == 0 && done != lastSaved {
			if err := st.saveS2(); err != nil {
				return err
			}
			lastSaved = done
		}
		p := ah.plan()
		src, dst := synB, synA
		if p.srcIsA {
			src, dst = synA, synB
		}

		for attempt := 0; ; attempt++ {
			rec.Add("core.s2.attempts", 1)
			c := ah.get(attempt)

			// §V entity rejection, unless disabled (SERD-) or out of
			// attempts. Without the check the accepted entity's pairs
			// still fold into O_syn so the estimate tracks reality (SERD-
			// skips the check, not the bookkeeping).
			check := !opts.DisableRejection && attempt < opts.MaxRejections
			if check && opts.GAN != nil && opts.GAN.Discriminate(c.e.Values) < opts.Beta {
				res.RejectedByDiscriminator++
				rec.Add("core.s2.rejected.discriminator", 1)
				continue
			}
			delta := dist.deltaVectors(c.preps, st.preps[src], c.r)
			if check && dist.reject(delta, c.r) {
				res.RejectedByDistribution++
				rec.Add("core.s2.rejected.distribution", 1)
				continue
			}
			dist.commit(delta)

			// S2-4: add e' and the sampled label, streaming the accepted
			// row out immediately when a stream writer is armed.
			if err := ah.commit(attempt, dst, c.e); err != nil {
				return err
			}
			st.preps[dst].Append(c.preps)
			if err := st.streamEntity(p.dstIsA(), c.e); err != nil {
				return err
			}
			st.record(p)
			if p.matching {
				rec.Add("core.s2.sampled_matches", 1)
			}
			rec.Add("core.s2.accepted", 1)
			rec.Observe("core.s2.attempts_per_entity", float64(attempt+1))
			rec.Set("core.s2.done", float64(synA.Len()+synB.Len()))
			if opts.Progress != nil {
				opts.Progress(synA.Len()+synB.Len(), totalTarget)
			}
			break
		}
		if done := synA.Len() + synB.Len(); done-blockFrom >= s2BlockSpanEvery || done >= totalTarget {
			closeBlock(done)
		}
	}
	if elapsed := time.Since(s2Start).Seconds(); elapsed > 0 {
		rec.Set("core.s2.entities_per_sec", float64(totalTarget-entryDone)/elapsed)
	}
	return nil
}

// runS3 labels all remaining pairs by posterior (§IV-C). With a blocker
// the candidate set is computed once up front and its tradeoff — count,
// reduction ratio, recall bound on the S2-sampled matches — is journaled
// before labeling starts, so even an interrupted blocked run records what
// its labeling was going to skip. A cancel returns behind a checkpoint of
// the completed S2 pools, from which a resume skips S2 and re-runs S3
// only.
func (st *synthRun) runS3(ctx context.Context) error {
	var cands []dataset.Pair
	blocked := st.opts.S3Blocker != nil
	if blocked {
		var err error
		cands, err = blocking.CandidatesOn(st.pool, st.opts.S3Blocker, st.synA, st.synB)
		if err != nil {
			return fmt.Errorf("core: s3 blocking: %w", err)
		}
		st.journalBlocking(cands)
	}
	matches, err := labelAllPairs(ctx, st.oReal, st.preps[st.synA], st.preps[st.synB], st.sampled, cands, blocked, st.pool)
	if err != nil {
		if serr := st.saveS2(); serr != nil {
			return serr
		}
		return fmt.Errorf("core: s3 interrupted: %w", err)
	}
	st.matches = matches
	return nil
}

// journalBlocking measures the blocked-S3 tradeoff and records it: gauges
// for live telemetry, a chained blocking event for the audit trail, and a
// warning when the measured recall bound falls below the configured floor.
// The recall bound is evaluated on the S2-sampled match pairs — labels
// known independently of S3, so candidate-set coverage of them estimates
// how many posterior matches blocking may cost (the sampled pairs
// themselves are kept regardless; see labelAllPairs).
func (st *synthRun) journalBlocking(cands []dataset.Pair) {
	set := make(map[dataset.Pair]bool, len(cands))
	for _, p := range cands {
		set[p] = true
	}
	hits := 0
	for _, p := range st.res.SampledMatchPairs {
		if set[p] {
			hits++
		}
	}
	heldOut := len(st.res.SampledMatchPairs)
	q := blocking.EvaluateCounts(st.synA.Len(), st.synB.Len(), heldOut, hits, len(cands))
	st.rec.Set("core.s3.candidates", float64(len(cands)))
	st.rec.Set("core.s3.reduction_ratio", q.ReductionRatio)
	st.rec.Set("core.s3.recall_bound", q.Recall)
	desc := st.opts.S3Blocker.Describe()
	st.opts.Journal.Blocking(journal.BlockingData{
		Source:         "core.s3",
		Blocker:        desc,
		Candidates:     len(cands),
		PairSpace:      float64(st.synA.Len()) * float64(st.synB.Len()),
		ReductionRatio: q.ReductionRatio,
		RecallBound:    q.Recall,
		HeldOutMatches: heldOut,
		RecallFloor:    st.opts.S3RecallFloor,
	})
	if st.opts.S3RecallFloor > 0 && heldOut > 0 && q.Recall < st.opts.S3RecallFloor {
		st.opts.Journal.Warning("core.s3", "blocking recall bound below configured floor", map[string]string{
			"blocker":      desc,
			"recall_bound": fmt.Sprintf("%.6g", q.Recall),
			"floor":        fmt.Sprintf("%.6g", st.opts.S3RecallFloor),
		})
	}
}

// runFinalize assembles the Result: the synthesized ER dataset, the final
// JSD estimate (which draws from the main RNG stream) and the journaled
// synthesis summary.
func (st *synthRun) runFinalize(context.Context) error {
	st.rec.Set("core.s3.matches", float64(len(st.matches)))
	syn, err := dataset.NewER(st.synA, st.synB, st.matches)
	if err != nil {
		return err
	}
	st.res.Syn = syn
	if st.opts.Stream != nil {
		// Matches stream in their final sorted order, so the streamed
		// matches.csv is byte-identical to a post-run SaveDir.
		for _, p := range st.matches {
			if err := st.opts.Stream.Match(st.synA.Entities[p.A].ID, st.synB.Entities[p.B].ID); err != nil {
				return err
			}
		}
	}
	st.res.JSD = st.dist.finalJSD(st.r)
	st.rec.Set("core.s2.jsd_final", st.res.JSD)
	st.opts.Journal.Synthesis(journal.SynthesisData{
		Entities:                st.synA.Len() + st.synB.Len(),
		Matches:                 len(st.matches),
		SampledMatches:          len(st.res.SampledMatchPairs),
		RejectedByDistribution:  st.res.RejectedByDistribution,
		RejectedByDiscriminator: st.res.RejectedByDiscriminator,
		JSD:                     st.res.JSD,
	})
	return nil
}
