package experiments

import (
	"fmt"

	"serd/internal/core"
	"serd/internal/dataset"
	"serd/internal/matcher"
)

// ScaleRow is one row of the scale-up extension experiment.
type ScaleRow struct {
	Dataset string
	Factor  float64
	Syn     dataset.Stats
	// F1 of a matcher trained on the scaled synthesized dataset, evaluated
	// on the real test split, against the Real-trained baseline.
	SynF1, RealF1 float64
}

// ScaleUp is an extension beyond the paper's default configuration: the
// problem statement (§II-D) allows n_a, n_b to differ from the real sizes,
// so a company can publish a larger surrogate than its real dataset. For
// each dataset, synthesize at the given size factor, train the Magellan
// matcher on it, and compare against the Real-trained baseline on the same
// real test split.
func (s *Suite) ScaleUp(factor float64) ([]ScaleRow, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("experiments: scale factor %v must be positive", factor)
	}
	done := s.track("scale_up")
	var rows []ScaleRow
	for _, name := range s.cfg.Datasets {
		g, err := s.Generated(name)
		if err != nil {
			return nil, err
		}
		synths, err := s.Synthesizers(g)
		if err != nil {
			return nil, err
		}
		opts := s.serdOptions(synths, 31)
		opts.SizeA, opts.SizeB = scale(g.ER.A.Len(), factor), scale(g.ER.B.Len(), factor)
		res, err := core.Synthesize(s.ctx(), g.ER, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: scale-up %s: %w", name, err)
		}

		r := s.Rand(601)
		pairs, err := s.workload(g.ER, 601)
		if err != nil {
			return nil, err
		}
		train, test, err := dataset.Split(pairs, s.cfg.TestFrac, r)
		if err != nil {
			return nil, err
		}
		testX, testY := dataset.Vectors(test)

		mReal := &matcher.RandomForest{Trees: 20, Seed: s.cfg.Seed + 11}
		trX, trY := dataset.Vectors(train)
		if err := matcher.FitContext(s.ctx(), mReal, trX, trY); err != nil {
			return nil, err
		}
		realF1 := matcher.Evaluate(mReal, testX, testY).F1()

		mSyn := &matcher.RandomForest{Trees: 20, Seed: s.cfg.Seed + 11}
		synPairs, err := s.workload(res.Syn, 603)
		if err != nil {
			return nil, err
		}
		synX, synY := dataset.Vectors(synPairs)
		if err := matcher.FitContext(s.ctx(), mSyn, synX, synY); err != nil {
			return nil, err
		}
		synF1 := matcher.Evaluate(mSyn, testX, testY).F1()

		rows = append(rows, ScaleRow{
			Dataset: name,
			Factor:  factor,
			Syn:     res.Syn.Stats(),
			SynF1:   synF1,
			RealF1:  realF1,
		})
	}
	done(len(rows))
	return rows, nil
}

func scale(n int, f float64) int {
	out := int(float64(n) * f)
	if out < 2 {
		out = 2
	}
	return out
}
