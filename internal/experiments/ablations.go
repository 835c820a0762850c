package experiments

import (
	"fmt"
	"math"

	"serd/internal/core"
	"serd/internal/textsynth"
)

// AlphaRow is one point of the rejection-α ablation (Eq. 10).
type AlphaRow struct {
	Alpha    float64
	JSD      float64
	Rejected int
	Matches  int
}

// AblationAlpha sweeps the distribution-rejection slack α on the named
// dataset: smaller α rejects more aggressively, trading synthesis work for
// a tighter final JSD(O_syn, O_real).
func (s *Suite) AblationAlpha(name string, alphas []float64) ([]AlphaRow, error) {
	g, err := s.Generated(name)
	if err != nil {
		return nil, err
	}
	synths, err := s.Synthesizers(g)
	if err != nil {
		return nil, err
	}
	var rows []AlphaRow
	for _, alpha := range alphas {
		opts := s.serdOptions(synths, 41)
		opts.Alpha = alpha
		res, err := core.Synthesize(s.ctx(), g.ER, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: alpha=%v: %w", alpha, err)
		}
		rows = append(rows, AlphaRow{
			Alpha: alpha, JSD: res.JSD,
			Rejected: res.RejectedByDistribution,
			Matches:  len(res.Syn.Matches),
		})
	}
	return rows, nil
}

// BetaRow is one point of the discriminator-β ablation (§V case 1).
type BetaRow struct {
	Beta        float64
	RejectedByD int
	JSD         float64
}

// AblationBeta trains the GAN once on the named dataset and sweeps the
// discriminator rejection threshold β.
func (s *Suite) AblationBeta(name string, betas []float64) ([]BetaRow, error) {
	g, err := s.Generated(name)
	if err != nil {
		return nil, err
	}
	synths, err := s.Synthesizers(g)
	if err != nil {
		return nil, err
	}
	trained, decode, err := s.trainGAN(g)
	if err != nil {
		return nil, err
	}
	var rows []BetaRow
	for _, beta := range betas {
		opts := s.serdOptions(synths, 43)
		opts.GAN, opts.GANDecode, opts.Beta = trained, decode, beta
		res, err := core.Synthesize(s.ctx(), g.ER, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: beta=%v: %w", beta, err)
		}
		rows = append(rows, BetaRow{Beta: beta, RejectedByD: res.RejectedByDiscriminator, JSD: res.JSD})
	}
	return rows, nil
}

// BucketRow is one point of the transformer bucket-count ablation (§VI).
type BucketRow struct {
	Buckets int
	// MeanError is the mean |sim′ − target| over the probe targets.
	MeanError float64
	// Epsilon is the DP cost consumed by the bank.
	Epsilon float64
}

// AblationBuckets trains micro DP transformer banks at several bucket
// counts k on the named dataset's first textual column and probes how
// closely each bank hits target similarities. More buckets specialize the
// models but thin their per-bucket training data.
func (s *Suite) AblationBuckets(name string, buckets []int, probes []float64) ([]BucketRow, error) {
	g, err := s.Generated(name)
	if err != nil {
		return nil, err
	}
	i := g.ER.Schema().FirstTextual()
	if i < 0 {
		return nil, fmt.Errorf("experiments: %s has no textual column", name)
	}
	col := &g.ER.Schema().Cols[i]
	corpus := g.Background[col.Name]
	if len(probes) == 0 {
		probes = []float64{0.1, 0.5, 0.9}
	}
	var rows []BucketRow
	for _, k := range buckets {
		opts := microTransformerOptions(s.cfg.Seed)
		opts.Buckets = k
		ts, err := textsynth.TrainTransformer(s.ctx(), corpus, col.Sim, opts)
		if err != nil {
			return nil, fmt.Errorf("experiments: buckets=%d: %w", k, err)
		}
		r := s.Rand(701)
		errSum := 0.0
		for _, target := range probes {
			_, achieved := ts.Synthesize(corpus[0], target, r)
			errSum += math.Abs(achieved - target)
		}
		rows = append(rows, BucketRow{Buckets: k, MeanError: errSum / float64(len(probes)), Epsilon: ts.Epsilon()})
	}
	return rows, nil
}
