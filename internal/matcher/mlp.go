package matcher

import (
	"context"
	"fmt"
	"math/rand"

	"serd/internal/nn"
)

// MLP is the deep matcher standing in for Deepmatcher: a multi-layer
// neural network over attribute similarity features trained with Adam (see
// DESIGN.md §1 for the substitution argument).
type MLP struct {
	// Hidden lists hidden-layer widths (default [32, 16]).
	Hidden []int
	// Epochs is the number of full-batch Adam steps (default 300).
	Epochs int
	// LR is the Adam learning rate (default 0.01).
	LR float64
	// Seed drives weight initialization.
	Seed int64

	ws, bs []*nn.Tensor
}

// Fit implements Matcher.
func (m *MLP) Fit(xs [][]float64, ys []bool) error {
	return m.FitContext(nil, xs, ys)
}

// FitContext implements ContextFitter: cancellation is checked once per
// Adam step.
func (m *MLP) FitContext(ctx context.Context, xs [][]float64, ys []bool) error {
	dim, err := validateTraining(xs, ys)
	if err != nil {
		return err
	}
	if len(m.Hidden) == 0 {
		m.Hidden = []int{32, 16}
	}
	if m.Epochs == 0 {
		m.Epochs = 300
	}
	if m.LR == 0 {
		m.LR = 0.01
	}
	r := rand.New(rand.NewSource(m.Seed))
	dims := append([]int{dim}, m.Hidden...)
	dims = append(dims, 1)
	m.ws, m.bs = nil, nil
	for i := 0; i+1 < len(dims); i++ {
		m.ws = append(m.ws, nn.NewParam(dims[i], dims[i+1]).XavierInit(r))
		m.bs = append(m.bs, nn.NewParam(1, dims[i+1]))
	}
	params := m.params()
	inputs := nn.FromRows(xs)
	targets := make([]float64, len(ys))
	for i, y := range ys {
		if y {
			targets[i] = 1
		}
	}
	opt := nn.NewAdam(m.LR)
	for epoch := 0; epoch < m.Epochs; epoch++ {
		if err := ctxErr(ctx); err != nil {
			return fmt.Errorf("matcher: mlp canceled at epoch %d/%d: %w", epoch, m.Epochs, err)
		}
		nn.ZeroGrads(params)
		nn.BCE(m.forward(inputs), targets).Backward()
		opt.Step(params)
	}
	return nil
}

func (m *MLP) params() []*nn.Tensor {
	out := make([]*nn.Tensor, 0, 2*len(m.ws))
	out = append(out, m.ws...)
	out = append(out, m.bs...)
	return out
}

func (m *MLP) forward(x *nn.Tensor) *nn.Tensor {
	for i := range m.ws {
		x = nn.AddRow(nn.MatMul(x, m.ws[i]), m.bs[i])
		if i+1 < len(m.ws) {
			x = nn.ReLU(x)
		}
	}
	return nn.Sigmoid(x)
}

// Score implements Scorer.
func (m *MLP) Score(x []float64) float64 {
	return m.forward(nn.FromRows([][]float64{x})).Data[0]
}

// Predict implements Matcher.
func (m *MLP) Predict(x []float64) bool { return m.Score(x) >= 0.5 }
