// Benchmark harness: one target per table and figure of the paper's
// evaluation section (§VII), plus the ablation benches called out in
// DESIGN.md §4. Each target regenerates its artifact and prints the rows
// the paper reports (on the first iteration). Run with
//
//	go test -bench=. -benchmem
//
// Dataset sizes are capped so the full sweep runs on one CPU core; the
// full-scale run is cmd/experiments.
package serd_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"serd"
	"serd/internal/datagen"
	"serd/internal/experiments"
	"serd/internal/gan"
	"serd/internal/generator"
	"serd/internal/gmm"
	"serd/internal/simfn"
	"serd/internal/textsynth"
)

// benchCfg is the capped configuration shared by the table/figure benches.
func benchCfg(datasets ...string) experiments.Config {
	return experiments.Config{Seed: 1, Datasets: datasets, SizeCap: 80, MatchCap: 30}
}

func BenchmarkTableI_SynthesizedStrings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchCfg())
		rows, err := s.TableI()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintTableI(os.Stdout, rows)
		}
	}
}

func BenchmarkTableII_DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchCfg())
		rows, err := s.TableII()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintTableII(os.Stdout, rows)
		}
	}
}

func BenchmarkFigure5_UserStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchCfg())
		rows, err := s.UserStudy()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintFigure5(os.Stdout, rows)
		}
	}
}

func benchEval(b *testing.B, kind experiments.MatcherKind, model bool, title string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchCfg())
		var rows []experiments.EvalRow
		var err error
		if model {
			rows, err = s.ModelEvaluation(kind)
		} else {
			rows, err = s.DataEvaluation(kind)
		}
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintEvalRows(os.Stdout, title, rows)
			// Report the headline number: SERD's mean F1 gap to Real.
			var gap float64
			var n int
			for _, r := range rows {
				if r.Method == experiments.MethodSERD {
					gap += r.DF1
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(100*gap/float64(n), "SERD-dF1-%")
			}
		}
	}
}

func BenchmarkFigure6_MagellanModelEval(b *testing.B) {
	benchEval(b, experiments.Magellan, true, "FIGURE 6 — MAGELLAN, TRAINED ON REAL/SYN, TESTED ON T_real")
}

func BenchmarkFigure7_DeepmatcherModelEval(b *testing.B) {
	benchEval(b, experiments.Deepmatcher, true, "FIGURE 7 — DEEPMATCHER, TRAINED ON REAL/SYN, TESTED ON T_real")
}

func BenchmarkFigure8_MagellanDataEval(b *testing.B) {
	benchEval(b, experiments.Magellan, false, "FIGURE 8 — MAGELLAN M_real, TESTED ON T_real vs T_syn")
}

func BenchmarkFigure9_DeepmatcherDataEval(b *testing.B) {
	benchEval(b, experiments.Deepmatcher, false, "FIGURE 9 — DEEPMATCHER M_real, TESTED ON T_real vs T_syn")
}

func BenchmarkTableIII_Privacy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchCfg())
		rows, err := s.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintTableIII(os.Stdout, rows)
		}
	}
}

func BenchmarkTableIV_Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchCfg("DBLP-ACM", "Restaurant"))
		rows, err := s.TableIV()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintTableIV(os.Stdout, rows)
		}
	}
}

// ---- Ablation benches (DESIGN.md §4) ----

// ablationFixture builds a small scholar dataset plus synthesizers.
func ablationFixture(b *testing.B) (*datagen.Generated, map[string]serd.Synthesizer) {
	b.Helper()
	gen, err := serd.Sample("DBLP-ACM", serd.SampleConfig{Seed: 2, SizeA: 60, SizeB: 60, Matches: 25, BackgroundPerColumn: 80})
	if err != nil {
		b.Fatal(err)
	}
	synths, err := serd.RuleSynthesizers(gen)
	if err != nil {
		b.Fatal(err)
	}
	return gen, synths
}

// BenchmarkAblation_RejectionAlpha sweeps the Eq. 10 slack α: smaller α
// rejects more aggressively and should push the final JSD down at the cost
// of more re-synthesis work.
func BenchmarkAblation_RejectionAlpha(b *testing.B) {
	gen, synths := ablationFixture(b)
	for _, alpha := range []float64{0.8, 1.0, 1.5, 3.0} {
		b.Run(fmt.Sprintf("alpha=%.1f", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := serd.Synthesize(gen.ER, serd.Options{
					Synthesizers: synths, Alpha: alpha, Seed: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.JSD, "JSD")
					b.ReportMetric(float64(res.RejectedByDistribution), "rejected")
				}
			}
		})
	}
}

// BenchmarkAblation_DiscriminatorBeta sweeps the GAN rejection threshold β.
func BenchmarkAblation_DiscriminatorBeta(b *testing.B) {
	gen, synths := ablationFixture(b)
	enc, err := gan.NewEncoder(gen.ER.Schema(), []*serd.Relation{gen.ER.A, gen.ER.B}, 0)
	if err != nil {
		b.Fatal(err)
	}
	var rows [][]string
	for _, e := range gen.ER.A.Entities {
		rows = append(rows, e.Values)
	}
	g, err := gan.Train(context.Background(), enc, rows, gan.Options{Epochs: 10, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, beta := range []float64{0.2, 0.5, 0.8} {
		b.Run(fmt.Sprintf("beta=%.1f", beta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := serd.Synthesize(gen.ER, serd.Options{
					Synthesizers: synths, GAN: g, Beta: beta, Seed: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.RejectedByDiscriminator), "rejectedByD")
				}
			}
		})
	}
}

// BenchmarkAblation_SimilarityBuckets sweeps the transformer bank's bucket
// count k (§VI): more buckets specialize the models but thin their
// training data. Reports the mean |sim' − target| over a probe sweep.
func BenchmarkAblation_SimilarityBuckets(b *testing.B) {
	gen, _ := ablationFixture(b)
	corpus := gen.Background["title"]
	sim := simfn.QGramJaccard{Q: 3, Fold: true}
	for _, k := range []int{2, 4} {
		b.Run(fmt.Sprintf("buckets=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ts, err := textsynth.TrainTransformer(context.Background(), corpus, sim, textsynth.TransformerOptions{
					Buckets: k, PairsPerBucket: 10, Epochs: 1, BatchSize: 4, Seed: 6,
					Model: serdTransformerMicro(),
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					r := rand.New(rand.NewSource(7))
					errSum, n := 0.0, 0
					for _, target := range []float64{0.1, 0.5, 0.9} {
						_, achieved := ts.Synthesize(corpus[0], target, r)
						errSum += abs(achieved - target)
						n++
					}
					b.ReportMetric(errSum/float64(n), "mean|sim'-sim|")
				}
			}
		})
	}
}

// BenchmarkAblation_IncrementalGMM compares the §V incremental parameter
// update (Eqs. 8-9) against a full EM re-fit per batch — the design choice
// the paper motivates as "very inefficient" to skip.
func BenchmarkAblation_IncrementalGMM(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	base := make([][]float64, 400)
	for i := range base {
		base[i] = []float64{0.5 + 0.1*r.NormFloat64(), 0.5 + 0.1*r.NormFloat64()}
	}
	batch := make([][]float64, 25)
	for i := range batch {
		batch[i] = []float64{0.55 + 0.1*r.NormFloat64(), 0.45 + 0.1*r.NormFloat64()}
	}
	model, err := gmm.Fit(context.Background(), base, 2, gmm.FitOptions{Rand: r})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		acc, err := gmm.NewAccumulator(model, base, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := acc.Snapshot().Add(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-refit", func(b *testing.B) {
		all := append(append([][]float64{}, base...), batch...)
		for i := 0; i < b.N; i++ {
			if _, err := gmm.Fit(context.Background(), all, 2, gmm.FitOptions{Rand: r}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_DPNoise sweeps the DP-SGD noise multiplier σ and
// reports the (ε, δ=1e-5) consumed — the privacy/utility dial of
// Algorithm 1.
func BenchmarkAblation_DPNoise(b *testing.B) {
	gen, _ := ablationFixture(b)
	corpus := gen.Background["authors"]
	sim := simfn.QGramJaccard{Q: 3, Fold: true}
	for _, sigma := range []float64{0.6, 1.1, 2.5} {
		b.Run(fmt.Sprintf("sigma=%.1f", sigma), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ts, err := textsynth.TrainTransformer(context.Background(), corpus, sim, textsynth.TransformerOptions{
					Buckets: 2, PairsPerBucket: 10, Epochs: 1, BatchSize: 4, Seed: 9,
					Model: serdTransformerMicro(),
					DP:    &textsynth.DPOptions{ClipNorm: 1, Noise: sigma, Delta: 1e-5},
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(ts.Epsilon(), "epsilon")
				}
			}
		})
	}
}

// BenchmarkCore_SynthesizeEntityRate measures raw synthesis throughput at
// several worker counts (outputs are bit-identical across them; see
// the worker rows of TestByteInvariance).
func BenchmarkCore_SynthesizeEntityRate(b *testing.B) {
	gen, synths := ablationFixture(b)
	j, err := generator.FitGMM(context.Background(), gen.ER, generator.FitOptions{Rand: rand.New(rand.NewSource(10))})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := serd.Synthesize(gen.ER, serd.Options{
					Synthesizers: synths, Learned: j, SizeA: 30, SizeB: 30, Seed: int64(i), Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(60, "entities/op")
		})
	}
}

// BenchmarkSimFn_QGramJaccard isolates the pipeline's hottest kernel: the
// q-gram Jaccard similarity, uncached (both sides re-derived per call, the
// pre-PR behavior everywhere) vs prepped (sorted gram sets computed once —
// what simfn.Bind and dataset.Preps give the S2/S3 hot paths).
func BenchmarkSimFn_QGramJaccard(b *testing.B) {
	sim := simfn.QGramJaccard{Q: 3, Fold: true}
	s1 := "Adaptable Query Optimization and Evaluation in Temporal Middleware"
	s2 := "Adaptable query optimization and evaluation in temporal middleware, extended"
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.Sim(s1, s2)
		}
	})
	b.Run("prepped", func(b *testing.B) {
		p1, p2 := sim.Prep(s1), sim.Prep(s2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.SimPrepped(p1, p2)
		}
	})
}

func serdTransformerMicro() serd.TransformerConfig {
	return serd.TransformerConfig{DModel: 16, Heads: 2, EncLayers: 1, DecLayers: 1, FFDim: 32, MaxLen: 40}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// BenchmarkExtension_ScaleUp exercises the problem statement's n_a/n_b
// flexibility: synthesize at 2× the real size and verify matcher utility
// holds (see experiments.ScaleUp).
func BenchmarkExtension_ScaleUp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.Config{Seed: 1, Datasets: []string{"Restaurant"}, SizeCap: 60, MatchCap: 25})
		rows, err := s.ScaleUp(2.0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			experiments.PrintScaleUp(os.Stdout, rows)
			b.ReportMetric(rows[0].SynF1, "F1(syn2x)")
		}
	}
}
