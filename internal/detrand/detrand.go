// Package detrand wraps math/rand's Source64 with a draw counter so a
// pipeline's RNG stream position can be checkpointed and restored exactly.
//
// The wrapper is transparent: a rand.Rand built over a Source produces the
// same stream as one built over rand.NewSource with the same seed, because
// every Int63/Uint64 call delegates one-for-one to the underlying source.
// Both calls advance the generator by exactly one internal state step
// (math/rand's Int63 is Uint64 masked to 63 bits), so the draw count is a
// complete description of the stream position — restoring means re-seeding
// and fast-forwarding the counted number of steps (SkipTo), regardless of
// which mix of Int63/Uint64/Float64/NormFloat64/Perm calls consumed them.
// The package's tests pin this one-advance-per-call property.
//
// SplitMix and Derive serve the other kind of stream: many short
// substreams keyed by position, such as one per Monte-Carlo stripe or per
// S2 entity and attempt, each cheap to seed and independent of the order
// in which the keys are visited.
package detrand

import (
	"fmt"
	"math/rand"
)

// Source is a counting rand.Source64.
type Source struct {
	seed  int64
	src   rand.Source64
	draws uint64
}

// New returns a counting source seeded like rand.NewSource(seed).
func New(seed int64) *Source {
	return &Source{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 draws one value, counting one stream advance.
func (s *Source) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

// Uint64 draws one value, counting one stream advance.
func (s *Source) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

// Seed re-seeds the source and resets the draw counter.
func (s *Source) Seed(seed int64) {
	s.seed = seed
	s.draws = 0
	s.src.Seed(seed)
}

// SeedValue returns the seed the source was (re-)seeded with.
func (s *Source) SeedValue() int64 { return s.seed }

// Draws returns the number of stream advances consumed so far — the value
// to checkpoint.
func (s *Source) Draws() uint64 { return s.draws }

// SkipTo fast-forwards the source to the absolute stream position n (a
// Draws() value recorded earlier). It errors when the source is already
// past n: the generator cannot rewind, so a mismatch means the caller
// replayed more work than the checkpoint covers.
func (s *Source) SkipTo(n uint64) error {
	if n < s.draws {
		return fmt.Errorf("detrand: cannot rewind from draw %d to %d", s.draws, n)
	}
	for s.draws < n {
		s.src.Uint64()
		s.draws++
	}
	return nil
}

// golden is SplitMix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// SplitMix is the SplitMix64 generator (Steele, Lea and Flood 2014) as a
// rand.Source64: 8 bytes of state, one add and one 64-bit mix per draw,
// and a free Seed. math/rand's own source carries 4.9 KB of state and
// seeding it runs hundreds of steps, which dominates a short substream —
// a Monte-Carlo stripe, or one S2 attempt. The zero value is the stream
// of seed 0.
type SplitMix struct{ x uint64 }

// NewSplitMix returns the SplitMix64 stream of seed.
func NewSplitMix(seed int64) *SplitMix { return &SplitMix{x: uint64(seed)} }

// Seed restarts the stream at seed.
func (s *SplitMix) Seed(seed int64) { s.x = uint64(seed) }

// Uint64 draws the next 64 bits.
func (s *SplitMix) Uint64() uint64 {
	s.x += golden
	return mix64(s.x)
}

// Int63 draws the low 63 bits of the next Uint64.
func (s *SplitMix) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// mix64 is SplitMix64's output function (Stafford's variant 13), a
// bijection on 64-bit words.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive returns the seed of the substream keyed by keys under seed: a
// pure function of its arguments, so a computation that draws entity j's
// randomness from Derive(seed, j) gets the same draws whatever order, or
// on whichever goroutine, the entities are computed. Distinct key lists,
// including lists of different lengths, name unrelated substreams.
func Derive(seed int64, keys ...uint64) int64 {
	h := mix64(uint64(seed))
	for _, k := range keys {
		h = mix64(h ^ mix64(k+golden))
	}
	return int64(h)
}
