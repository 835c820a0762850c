package checkpoint

import (
	"serd/internal/dp"
	"serd/internal/gmm"
	"serd/internal/transformer"
)

// This file defines the gob-encoded state payloads. Everything in them is
// plain data: the owning packages (core, textsynth) provide the
// capture/restore logic, built on the exact-state constructors of gmm
// (ModelFromState and friends), transformer (FromState) and dp
// (RDPFromState) so restored runs continue bit-for-bit.

// S1State is the pipeline state right after S1: the learned O_real and the
// main RNG stream position.
type S1State struct {
	// Backend is the S1 generator that fitted O_real ("gmm", "privbayes").
	// Resume refuses a backend mismatch against the configured run, and an
	// empty tag (a checkpoint from an older build) outright.
	Backend string
	// Gen is the backend's gob-encoded fitted-distribution state; opaque
	// to this package.
	Gen []byte
	// Draws is the core RNG stream position (detrand draw count).
	Draws uint64
}

// EntityState is one synthesized entity.
type EntityState struct {
	ID     string
	Values []string
}

// DistSnap is the S2 rejection state (core's distState): the pending
// vector pools before O_syn activates, or the live accumulators after.
type DistSnap struct {
	PendingPos   [][]float64
	PendingNeg   [][]float64
	AccM, AccN   *gmm.AccumulatorState // nil until O_syn is estimable
	NPos, NNeg   int
	LastFitTotal int
}

// S2State is a mid-S2 synthesis checkpoint: O_real, both entity pools, the
// rejection state and the RNG position. It holds nothing a resume can
// derive: the sampled pair labels and the matched index sets are a
// function of the seed and the pool sizes, and the resume rebuilds them
// by replaying S2's plans over the restored pools. (A payload that still
// carries them, as earlier builds wrote, decodes unchanged: gob skips the
// fields this type no longer has.)
type S2State struct {
	// Backend / Gen carry O_real exactly as in S1State.
	Backend                 string
	Gen                     []byte
	A, B                    []EntityState
	RejectedByDiscriminator int
	RejectedByDistribution  int
	Dist                    *DistSnap
	// Draws is the core main-stream position: past the bootstrap entity.
	// Later entities draw from substreams keyed by their position, so the
	// pools above say where S2 resumes.
	Draws uint64
}

// TrainState is a transformer-bank training checkpoint for one textual
// column.
type TrainState struct {
	Column string
	// Buckets is the configured bank width (sanity-checked on resume).
	Buckets int
	// Done marks a completed bank: resume skips training entirely and
	// rebuilds the synthesizer from Models.
	Done bool
	// NextBucket is the bucket currently (or next) being trained.
	NextBucket int
	// EpochsDone counts finished epochs within NextBucket; 0 means the
	// bucket's DP cost is charged but no epoch has completed.
	EpochsDone int
	// OptSteps is the DP-SGD optimizer's applied-update count in the
	// current bucket.
	OptSteps int
	// Acct is the bucket's RDP accountant state.
	Acct dp.RDPState
	// Models holds per-bucket model states keyed by bucket index:
	// completed buckets (< NextBucket, or all when Done) and — when
	// EpochsDone > 0 — the in-progress bucket's mid-training state.
	// Missing buckets were skipped (too few pairs) or not reached yet.
	// (A map rather than a sparse slice: gob rejects nil slice elements.)
	Models map[int]*transformer.State
	// Epsilons are the per-bucket spent ε values reported so far.
	Epsilons []float64
	// Draws is the trainer RNG stream position (pair building, sampling,
	// SGD noise).
	Draws uint64
}

// CoreState bundles the synthesis checkpoints handed to core.Synthesize on
// resume: the later one wins (S2 subsumes S1).
type CoreState struct {
	S1 *S1State
	S2 *S2State
}
