package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"serd/internal/dataset"
	"serd/internal/detrand"
	"serd/internal/telemetry"
	"serd/internal/trace"
)

// S2's randomness is keyed by position (DESIGN §9). The bootstrap entity
// draws from the run's main stream; every later entity j draws its plan
// from the substream detrand.Derive(Seed, j) and attempt k of it from
// detrand.Derive(Seed, j, k). The output is then a function of the seed
// alone, whichever goroutine computes which attempt.

// s2Plan is what S2-1 decides for entity j before any synthesis: the pair
// label, the source entity e and the pool lengths at that point.
type s2Plan struct {
	matching bool
	// srcIsA says e comes from A_syn, so e' goes to B_syn.
	srcIsA     bool
	eIdx       int
	lenA, lenB int
}

// dstIsA reports whether e' joins A_syn.
func (p s2Plan) dstIsA() bool { return !p.srcIsA }

// id is e'’s entity id: its 1-based position in its own table.
func (p s2Plan) id() string {
	if p.dstIsA() {
		return fmt.Sprintf("sa%d", p.lenA+1)
	}
	return fmt.Sprintf("sb%d", p.lenB+1)
}

// planner draws S2-1's plans in entity order. A plan needs only the pool
// lengths and the matched index sets, and every entity is accepted
// eventually, so the planner replays their growth without waiting for
// any synthesis: it runs ahead of the committed pools on its own copy of
// the matched sets.
type planner struct {
	seed          int64
	sizeA, sizeB  int
	matchFraction float64
	lenA, lenB    int
	matchedA      map[int]bool
	matchedB      map[int]bool
}

// newPlanner starts the plans at the committed state: the pools' lengths
// and a copy of their matched sets.
func newPlanner(st *synthRun) *planner {
	clone := func(m map[int]bool) map[int]bool {
		out := make(map[int]bool, len(m))
		for i := range m {
			out[i] = true
		}
		return out
	}
	return &planner{
		seed:          st.opts.Seed,
		sizeA:         st.opts.SizeA,
		sizeB:         st.opts.SizeB,
		matchFraction: st.matchFraction,
		lenA:          st.synA.Len(),
		lenB:          st.synB.Len(),
		matchedA:      clone(st.matched[st.synA]),
		matchedB:      clone(st.matched[st.synB]),
	}
}

// done reports whether every entity has been planned.
func (pl *planner) done() bool { return pl.lenA >= pl.sizeA && pl.lenB >= pl.sizeB }

// next plans the next entity and advances the replayed pools past it.
func (pl *planner) next() s2Plan {
	j := pl.lenA + pl.lenB
	r := rand.New(detrand.NewSplitMix(detrand.Derive(pl.seed, uint64(j))))
	// Decide the pair label first (the draw is independent of the entity
	// choice), so S2-1 can respect one-to-one matching.
	p := s2Plan{matching: r.Float64() < pl.matchFraction, lenA: pl.lenA, lenB: pl.lenB}
	// S2-1: sample a synthesized entity (respecting §III remark 1).
	switch {
	case pl.lenB >= pl.sizeB:
		p.srcIsA = false // B full: e from B, e' goes to A
	case pl.lenA >= pl.sizeA:
		p.srcIsA = true // A full: e from A, e' goes to B
	default:
		p.srcIsA = r.Intn(pl.lenA+pl.lenB) < pl.lenA
	}
	src, dst := pl.matchedB, pl.matchedA
	n := pl.lenB
	if p.srcIsA {
		src, dst = pl.matchedA, pl.matchedB
		n = pl.lenA
	}
	p.eIdx = sampleEntity(n, p.matching, src, r)
	dstIdx := pl.lenB
	if p.dstIsA() {
		dstIdx = pl.lenA
	}
	if p.matching {
		src[p.eIdx] = true
		dst[dstIdx] = true
	}
	if p.dstIsA() {
		pl.lenA++
	} else {
		pl.lenB++
	}
	return p
}

// candidate is one S2 attempt's synthesis: e' and e′'s preps. r is the
// attempt's stream, positioned after the synthesis draws; the chain draws
// the ΔX sample and the Eq. 10 seed from it next.
type candidate struct {
	e     *dataset.Entity
	preps *dataset.Preps
	r     *rand.Rand
}

// candidate synthesizes attempt k of entity j (S2-2 and S2-3) from its
// plan p and source entity e. It reads only immutable run state, so it is
// safe on any goroutine.
func (st *synthRun) candidate(p s2Plan, j, k int, e *dataset.Entity) *candidate {
	r := rand.New(detrand.NewSplitMix(detrand.Derive(st.opts.Seed, uint64(j), uint64(k))))
	// S2-2: sample a similarity vector from O_real.
	var x []float64
	if p.matching {
		x = st.oReal.SampleMatching(r)
	} else {
		x = st.oReal.SampleNonMatching(r)
	}
	// S2-3: synthesize e' from e and x, and prep it once: its delta
	// vectors read the preps, and on accept they join its side's preps.
	c := st.vs.synthesizeEntity(p.id(), e, x, p.dstIsA(), r)
	return &candidate{e: c, preps: dataset.NewPreps(st.real.Schema(), []*dataset.Entity{c}, nil, ""), r: r}
}

// candKey names attempt k of entity j.
type candKey struct{ j, k int }

// ahead hands S2's chain — runS2's loop — its plans and candidates, and
// computes candidates on the pool's other workers while the chain adopts
// them in (j, k) order. Workers only compute: they write nothing to the
// pools, the journal, the stream or the counters, so what the chain does,
// and the run's output, is the same as when the chain computes every
// candidate itself.
//
// A worker takes, in order of preference, attempt 0 of the next entities
// within the window (always consumed), then the chain's current entity's
// next retry, when a rejection is possible at all (possibly wasted). A
// candidate whose source entity is not committed yet waits for it.
type ahead struct {
	st  *synthRun
	pl  *planner
	tr  *trace.Tracer
	rec telemetry.Recorder
	// window is how many entities, the chain's own included, may have
	// their attempt 0 computed ahead.
	window int

	mu   sync.Mutex
	cond sync.Cond
	// j and k are the chain's entity and attempt (k = -1 before it asks
	// for attempt 0); plans holds the plans of entities j, j+1, ….
	j, k  int
	plans []s2Plan
	// slots holds the claimed candidates: nil while one is computed, the
	// result once done. The chain deletes a slot when it takes it.
	slots map[candKey]*candidate
	// live says the Eq. 10 check or the discriminator can reject now.
	live    bool
	stopped bool
	wg      sync.WaitGroup
}

// startAhead starts workers-1 candidate workers; the chain is the last
// worker. At one worker it starts none, and get computes every candidate
// the chain asks for inline.
func (st *synthRun) startAhead(workers int) *ahead {
	a := &ahead{
		st:     st,
		pl:     newPlanner(st),
		tr:     trace.FromRecorder(st.rec),
		rec:    st.rec,
		window: 4 * workers,
		j:      st.synA.Len() + st.synB.Len(),
		k:      -1,
		slots:  make(map[candKey]*candidate),
		live:   st.canReject(),
	}
	a.cond.L = &a.mu
	a.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go a.work()
	}
	return a
}

// canReject reports whether an attempt that is not the last can be
// rejected now: with a discriminator, or once O_syn is estimable.
func (st *synthRun) canReject() bool {
	return !st.opts.DisableRejection && (st.opts.GAN != nil || st.dist.active())
}

// planLocked returns entity j's plan, planning up to it; false when j is
// past the last entity.
func (a *ahead) planLocked(j int) (s2Plan, bool) {
	for len(a.plans) <= j-a.j {
		if a.pl.done() {
			return s2Plan{}, false
		}
		a.plans = append(a.plans, a.pl.next())
	}
	return a.plans[j-a.j], true
}

// sourceLocked returns plan p's source entity, or nil while the chain has
// not committed it.
func (a *ahead) sourceLocked(p s2Plan) *dataset.Entity {
	src := a.st.synB
	if p.srcIsA {
		src = a.st.synA
	}
	if p.eIdx >= src.Len() {
		return nil
	}
	return src.Entities[p.eIdx]
}

// pickLocked claims the next candidate to compute, attempt 0s only when
// firstOnly is set: the chain, waiting on a worker, helps only with
// candidates that are never wasted.
func (a *ahead) pickLocked(firstOnly bool) (candKey, s2Plan, *dataset.Entity, bool) {
	claim := func(key candKey) (candKey, s2Plan, *dataset.Entity, bool) {
		if _, taken := a.slots[key]; taken {
			return key, s2Plan{}, nil, false
		}
		p, ok := a.planLocked(key.j)
		if !ok {
			return key, s2Plan{}, nil, false
		}
		e := a.sourceLocked(p)
		if e == nil {
			return key, s2Plan{}, nil, false
		}
		a.slots[key] = nil
		return key, p, e, true
	}
	for i := 0; i < a.window; i++ {
		if i == 0 && a.k >= 0 {
			continue // the chain has taken attempt 0 of its entity
		}
		if key, p, e, ok := claim(candKey{a.j + i, 0}); ok {
			return key, p, e, true
		}
	}
	if firstOnly || !a.live || a.k < 0 || a.k >= a.st.opts.MaxRejections {
		return candKey{}, s2Plan{}, nil, false
	}
	return claim(candKey{a.j, a.k + 1})
}

// computeLocked computes the claimed candidate key with the lock released
// and stores it, or counts it discarded when the chain has dropped its
// slot meanwhile.
func (a *ahead) computeLocked(key candKey, p s2Plan, e *dataset.Entity) {
	a.mu.Unlock()
	c := a.st.candidate(p, key.j, key.k, e)
	a.mu.Lock()
	if _, ok := a.slots[key]; !ok {
		a.mu.Unlock()
		a.discard(1)
		a.mu.Lock()
		return
	}
	a.slots[key] = c
	a.cond.Broadcast()
}

// work is one candidate worker: claim, compute, store, until stopped.
func (a *ahead) work() {
	defer a.wg.Done()
	a.mu.Lock()
	defer a.mu.Unlock()
	for !a.stopped {
		key, p, e, ok := a.pickLocked(false)
		if !ok {
			a.cond.Wait()
			continue
		}
		a.computeLocked(key, p, e)
	}
}

// plan returns the chain's next entity's plan.
func (a *ahead) plan() s2Plan {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, _ := a.planLocked(a.j)
	return p
}

// get returns attempt k of the chain's entity: a worker's result, or the
// chain's own computation when no worker has claimed it. While a worker
// still computes it, the chain helps with another entity's attempt 0, or
// waits.
func (a *ahead) get(k int) *candidate {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.k = k
	a.cond.Broadcast() // a retry may now be worth computing ahead
	key := candKey{a.j, k}
	for {
		c, claimed := a.slots[key]
		switch {
		case !claimed:
			p, _ := a.planLocked(a.j)
			e := a.sourceLocked(p)
			a.slots[key] = nil
			a.mu.Unlock()
			c = a.st.candidate(p, key.j, key.k, e)
			a.mu.Lock()
			delete(a.slots, key)
			return c
		case c != nil:
			delete(a.slots, key)
			return c
		}
		if hk, p, e, ok := a.pickLocked(true); ok {
			a.computeLocked(hk, p, e)
			continue
		}
		span := a.tr.Child("core.s2.chain_wait")
		t0 := time.Now()
		a.cond.Wait()
		a.mu.Unlock()
		a.rec.Observe("core.s2.chain_wait", time.Since(t0).Seconds())
		span.End()
		a.mu.Lock()
	}
}

// commit makes the chain's accept of attempt k visible to the workers:
// e' joins dst under the lock (workers read the pools' source entities),
// the current entity's other candidates are dropped and the chain moves to
// the next entity.
func (a *ahead) commit(k int, dst *dataset.Relation, e *dataset.Entity) error {
	a.mu.Lock()
	if err := dst.Append(e); err != nil {
		a.mu.Unlock()
		return err
	}
	n := 0
	for key, c := range a.slots {
		if key.j == a.j && key.k > k {
			delete(a.slots, key)
			if c != nil {
				n++ // in-flight ones count when their worker finishes
			}
		}
	}
	a.j++
	a.k = -1
	a.plans = a.plans[1:]
	a.live = a.st.canReject()
	a.cond.Broadcast()
	a.mu.Unlock()
	a.discard(n)
	return nil
}

// discard counts n computed candidates the chain will never take, each
// also a zero-length trace span, so trace summaries list them.
func (a *ahead) discard(n int) {
	if n == 0 {
		return
	}
	a.rec.Add("core.s2.candidates_discarded", float64(n))
	for i := 0; i < n; i++ {
		a.tr.Child("core.s2.candidates_discarded").End()
	}
}

// stop ends the workers and drops every candidate not yet taken: at the
// end of S2, or on a cancel, whose resume recomputes them from the seed
// and the committed pools.
func (a *ahead) stop() {
	a.mu.Lock()
	a.stopped = true
	n := 0
	for key, c := range a.slots {
		delete(a.slots, key)
		if c != nil {
			n++
		}
	}
	a.cond.Broadcast()
	a.mu.Unlock()
	a.discard(n)
	a.wg.Wait()
}
