// Package dp implements the differential-privacy machinery of the paper:
// the DP-SGD update of Algorithm 1 (per-example gradient clipping plus
// Gaussian noise), an RDP-based privacy accountant for reporting the
// (ε, δ) guarantee of a training run, and the scalar Laplace mechanism.
package dp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"serd/internal/nn"
	"serd/internal/telemetry"
)

// SGD is the DP-SGD optimizer of Algorithm 1. Training code computes the
// gradient of ONE example at a time (forward + Backward), calls
// AccumulateExample — which clips the per-example gradient to L2 norm
// ClipNorm (line 8) and adds it to the minibatch sum — and after the
// minibatch calls Step, which adds N(0, σ²V²) noise, averages (line 9) and
// descends (line 10).
type SGD struct {
	Params   []*nn.Tensor
	LR       float64 // learning rate η
	ClipNorm float64 // gradient norm bound V
	Noise    float64 // noise scale σ
	Rand     *rand.Rand
	// Metrics, when set, receives DP-SGD telemetry: the "dp.sgd.steps" and
	// "dp.sgd.examples" counters plus a pre-clip gradient-norm histogram
	// ("dp.sgd.gradnorm"). Defaults to a no-op.
	Metrics telemetry.Recorder

	sums  [][]float64
	count int
	steps int
}

// NewSGD validates and returns a DP-SGD optimizer.
func NewSGD(params []*nn.Tensor, lr, clipNorm, noise float64, r *rand.Rand) (*SGD, error) {
	switch {
	case len(params) == 0:
		return nil, errors.New("dp: no parameters")
	case lr <= 0:
		return nil, fmt.Errorf("dp: learning rate %v", lr)
	case clipNorm <= 0:
		return nil, fmt.Errorf("dp: clip norm %v", clipNorm)
	case noise < 0:
		return nil, fmt.Errorf("dp: noise scale %v", noise)
	case r == nil:
		return nil, errors.New("dp: nil rand source")
	}
	o := &SGD{Params: params, LR: lr, ClipNorm: clipNorm, Noise: noise, Rand: r, Metrics: telemetry.Nop}
	o.sums = make([][]float64, len(params))
	for i, p := range params {
		o.sums[i] = make([]float64, len(p.Data))
	}
	return o, nil
}

// AccumulateExample clips the current per-example gradient
// (ḡ = g / max(1, ||g||₂/V), Algorithm 1 line 8), adds it to the minibatch
// sum and zeroes the gradients for the next example.
func (o *SGD) AccumulateExample() {
	norm := nn.GradNorm(o.Params)
	o.Metrics.Observe("dp.sgd.gradnorm", norm)
	o.Metrics.Add("dp.sgd.examples", 1)
	scale := 1.0
	if norm > o.ClipNorm {
		scale = o.ClipNorm / norm
	}
	for i, p := range o.Params {
		sum := o.sums[i]
		for j, g := range p.Grad {
			sum[j] += g * scale
		}
	}
	nn.ZeroGrads(o.Params)
	o.count++
}

// Step adds Gaussian noise N(0, σ²V²) to the summed clipped gradients,
// divides by the minibatch size J and applies the descent update
// (Algorithm 1 lines 9-10). It reports an error when no examples were
// accumulated.
func (o *SGD) Step() error {
	if o.count == 0 {
		return errors.New("dp: Step with no accumulated examples")
	}
	invJ := 1 / float64(o.count)
	sd := o.Noise * o.ClipNorm
	for i, p := range o.Params {
		sum := o.sums[i]
		for j := range sum {
			g := (sum[j] + sd*o.Rand.NormFloat64()) * invJ
			p.Data[j] -= o.LR * g
			sum[j] = 0
		}
	}
	o.count = 0
	o.steps++
	o.Metrics.Add("dp.sgd.steps", 1)
	return nil
}

// Steps returns the number of noisy updates applied so far, the T consumed
// by the accountant.
func (o *SGD) Steps() int { return o.steps }

// RestoreSteps sets the applied-update counter when resuming an optimizer
// from a checkpoint, so Steps() reflects the whole training run rather than
// just the post-resume tail.
func (o *SGD) RestoreSteps(n int) { o.steps = n }

// Accountant computes the (ε, δ) privacy guarantee of a DP-SGD run via
// Rényi differential privacy. For the subsampled Gaussian mechanism with
// sampling ratio q and noise multiplier σ, each step satisfies
// RDP(α) ≤ q²·α / σ² (the standard moments-accountant bound of Abadi et
// al., valid in the regime σ ≥ 1, q ≪ 1 used here); RDP composes linearly
// over steps and converts to (ε, δ)-DP by
// ε = min_α [ T·rdp(α) + log(1/δ)/(α−1) ].
type Accountant struct {
	// Q is the sampling ratio: minibatch size / dataset size.
	Q float64
	// Noise is the noise multiplier σ.
	Noise float64
}

// Epsilon returns the ε of (ε, δ)-DP after steps noisy updates. A zero
// noise multiplier yields +Inf (no privacy).
func (a Accountant) Epsilon(steps int, delta float64) float64 {
	if a.Noise <= 0 || steps <= 0 {
		return math.Inf(1)
	}
	best := math.Inf(1)
	for alpha := 1.25; alpha <= 512; alpha *= 1.1 {
		rdp := float64(steps) * a.Q * a.Q * alpha / (a.Noise * a.Noise)
		eps := rdp + math.Log(1/delta)/(alpha-1)
		if eps < best {
			best = eps
		}
	}
	return best
}

// EpsilonForLots returns the ε of (ε, δ)-DP for a DP-SGD run of steps
// noisy updates at sampling ratio q plus tailSteps updates at tailQ — the
// accounting shape of epoch-wise training over a dataset whose size is not
// divisible by the batch size: every epoch contributes full lots at
// q = B/N and one partial final lot at tailQ = (N mod B)/N. Accounting the
// partial lot at the full-lot q (as a single fixed-q Accountant would)
// overstates its sampling ratio and therefore the reported ε.
//
// With tailSteps == 0 this evaluates the exact expression of
// Accountant.Epsilon, bit for bit — journals recorded before partial-lot
// accounting existed recompute unchanged.
func EpsilonForLots(noise float64, steps int, q float64, tailSteps int, tailQ, delta float64) float64 {
	if noise <= 0 || steps+tailSteps <= 0 {
		return math.Inf(1)
	}
	best := math.Inf(1)
	for alpha := 1.25; alpha <= 512; alpha *= 1.1 {
		rdp := float64(steps) * q * q * alpha / (noise * noise)
		if tailSteps > 0 {
			rdp += float64(tailSteps) * tailQ * tailQ * alpha / (noise * noise)
		}
		eps := rdp + math.Log(1/delta)/(alpha-1)
		if eps < best {
			best = eps
		}
	}
	return best
}

// RDPAccountant accumulates the RDP cost of a DP-SGD run step by step,
// each step with its own true sampling ratio q = lot size / dataset size.
// Per step, RDP(α) ≤ q²·α/σ² (the same subsampled-Gaussian bound as
// Accountant); since the bound is linear in α, the accumulated grid
// collapses to Σq², making the state two numbers — cheap to checkpoint and
// exact to restore.
type RDPAccountant struct {
	// Noise is the noise multiplier σ.
	Noise float64

	sumQ2 float64 // Σ over steps of q²
	steps int
}

// Account registers one noisy update with sampling ratio q.
func (a *RDPAccountant) Account(q float64) {
	a.sumQ2 += q * q
	a.steps++
}

// Steps returns the number of accounted updates.
func (a *RDPAccountant) Steps() int { return a.steps }

// Epsilon converts the accumulated RDP to (ε, δ)-DP:
// ε = min_α [ Σq²·α/σ² + log(1/δ)/(α−1) ] over the same α grid as
// Accountant.
func (a *RDPAccountant) Epsilon(delta float64) float64 {
	if a.Noise <= 0 || a.steps <= 0 {
		return math.Inf(1)
	}
	best := math.Inf(1)
	for alpha := 1.25; alpha <= 512; alpha *= 1.1 {
		eps := a.sumQ2*alpha/(a.Noise*a.Noise) + math.Log(1/delta)/(alpha-1)
		if eps < best {
			best = eps
		}
	}
	return best
}

// RecordEpsilon publishes the (ε, δ) spent so far to the recorder as the
// "dp.epsilon" and "dp.delta" gauges — called after each Step, it turns
// the accountant into a live privacy-budget trajectory on the run
// inspector. δ is published before ε: journal-backed recorders treat each
// "dp.epsilon" update as an ε checkpoint and pair it with the most recent
// δ.
func (a *RDPAccountant) RecordEpsilon(rec telemetry.Recorder, delta float64) {
	if !telemetry.Enabled(rec) {
		return
	}
	rec.Set("dp.delta", delta)
	rec.Set("dp.epsilon", a.Epsilon(delta))
}

// RDPState is the accountant's serialized form for checkpointing.
type RDPState struct {
	Noise float64
	SumQ2 float64
	Steps int
}

// State snapshots the accountant.
func (a *RDPAccountant) State() RDPState {
	return RDPState{Noise: a.Noise, SumQ2: a.sumQ2, Steps: a.steps}
}

// RDPFromState restores an accountant exactly.
func RDPFromState(st RDPState) *RDPAccountant {
	return &RDPAccountant{Noise: st.Noise, sumQ2: st.SumQ2, steps: st.Steps}
}

// NoiseForEpsilon searches for the smallest noise multiplier σ such that
// the run of the given length satisfies (ε, δ)-DP. It returns an error if
// even a huge σ cannot reach the target.
func NoiseForEpsilon(q float64, steps int, epsilon, delta float64) (float64, error) {
	if epsilon <= 0 {
		return 0, fmt.Errorf("dp: epsilon %v must be positive", epsilon)
	}
	lo, hi := 1e-3, 1e4
	if (Accountant{Q: q, Noise: hi}).Epsilon(steps, delta) > epsilon {
		return 0, fmt.Errorf("dp: cannot reach epsilon %v with %d steps at q=%v", epsilon, steps, q)
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if (Accountant{Q: q, Noise: mid}).Epsilon(steps, delta) > epsilon {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}

// LaplaceMechanism releases value + Lap(sensitivity/ε), which is ε-DP for a
// query with the given L1 sensitivity.
func LaplaceMechanism(value, sensitivity, epsilon float64, r *rand.Rand) float64 {
	b := sensitivity / epsilon
	u := r.Float64() - 0.5
	return value - b*sign(u)*math.Log(1-2*math.Abs(u))
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}
