package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"serd"
	"serd/internal/checkpoint"
	"serd/internal/config"
	"serd/internal/journal"
	"serd/internal/session"
	"serd/internal/telemetry"
)

// synthConfig carries the parsed flags and the run's wiring (journal,
// ledger, checkpointer, resume snapshot) into the pipeline body.
type synthConfig struct {
	flags  *config.Serd
	schema *serd.Schema
	jr     *journal.Journal
	ledger *journal.Ledger
	cp     *checkpoint.Checkpointer
	snap   *checkpoint.Snapshot
}

// synth runs the pipeline proper: transformer-bank training (or the rule
// synthesizer), core synthesis, dataset output and the optional privacy
// audit, reporting into rec. ctx cancels it cooperatively at the next
// minibatch/chunk/iteration boundary. The returned Result carries the
// run report's headline scalars and privacy block, and the same scalars
// as the journal's run_end summary.
func synth(ctx context.Context, cfg synthConfig, rec telemetry.Recorder, real *serd.ER, stdout io.Writer) (session.Result, error) {
	flags := cfg.flags
	if cfg.cp != nil {
		cfg.cp.Metrics = rec
	}
	synths := make(map[string]serd.Synthesizer)
	for _, col := range cfg.schema.Cols {
		if col.Kind != serd.Textual {
			continue
		}
		corpus, err := readLines(filepath.Join(flags.In, "background_"+col.Name+".txt"))
		if err != nil {
			return session.Result{}, fmt.Errorf("textual column %q needs a background corpus: %w", col.Name, err)
		}
		if flags.Transformer {
			txOpts := serd.TransformerOptions{
				Buckets:        flags.TxBuckets,
				PairsPerBucket: flags.TxPairs,
				Epochs:         flags.TxEpochs,
				BatchSize:      flags.TxBatch,
				Candidates:     flags.TxCandidates,
				DP:             &serd.DPOptions{ClipNorm: flags.DPClip, Noise: flags.DPNoise, Delta: flags.DPDelta},
				Metrics:        rec,
				Privacy:        cfg.ledger,
				Checkpoint:     cfg.cp,
				Column:         col.Name,
				Seed:           flags.Seed,
			}
			if cfg.snap != nil {
				if f := cfg.snap.Trains[col.Name]; f != nil {
					txOpts.Resume = f.Train
				}
			}
			ts, err := serd.TrainTransformerContext(ctx, corpus, col.Sim, txOpts)
			if err != nil {
				return session.Result{}, fmt.Errorf("training transformer bank for column %q: %w", col.Name, err)
			}
			if cfg.cp != nil && (txOpts.Resume == nil || !txOpts.Resume.Done) {
				// Terminal per-column checkpoint: a crash in any later
				// phase resumes without retraining this bank.
				if err := cfg.cp.SaveTrain(ts.CheckpointState(col.Name)); err != nil {
					return session.Result{}, err
				}
			}
			fmt.Fprintf(stdout, "transformer bank for %q trained (ε=%.4f at δ=%g)\n", col.Name, ts.Epsilon(), flags.DPDelta)
			synths[col.Name] = ts
			continue
		}
		rs, err := serd.NewRuleSynthesizer(col.Sim, corpus)
		if err != nil {
			return session.Result{}, err
		}
		synths[col.Name] = rs
	}

	blocker, err := flags.Blocking.Build(cfg.schema)
	if err != nil {
		return session.Result{}, err
	}
	if blocker != nil {
		fmt.Fprintf(stdout, "S3 blocking: %s\n", blocker.Describe())
	}

	gen, err := flags.Generators.Build()
	if err != nil {
		return session.Result{}, err
	}

	opts := serd.Options{
		SizeA:            flags.SizeA,
		SizeB:            flags.SizeB,
		Synthesizers:     synths,
		DisableRejection: flags.NoReject,
		S3Blocker:        blocker,
		Generator:        gen,
		// The ledger always rides along: the GMM backend never touches it,
		// DP backends (privbayes) charge their fit through it.
		Privacy:       cfg.ledger,
		S3RecallFloor: flags.Blocking.RecallFloor,
		Metrics:       rec,
		Journal:       cfg.jr,
		Checkpoint:    cfg.cp,
		Seed:          flags.Seed,
		// Workers is an execution parameter, not a run parameter: it is
		// deliberately absent from the journaled RunStart config so runs at
		// different worker counts produce identical journals.
		Workers: flags.Workers,
	}
	if cfg.snap != nil {
		// The later checkpoint wins: a mid-S2 state subsumes the post-S1
		// one. (A crash during training leaves neither, and core starts
		// fresh — the trained banks above were restored from their own
		// checkpoints.)
		switch {
		case cfg.snap.S2 != nil:
			opts.Resume = &checkpoint.CoreState{S2: cfg.snap.S2.S2}
		case cfg.snap.S1 != nil:
			opts.Resume = &checkpoint.CoreState{S1: cfg.snap.S1.S1}
		}
	}
	if flags.Progress {
		opts.Progress = func(done, total int) {
			if done%50 == 0 || done == total {
				fmt.Fprintf(stdout, "\rsynthesized %d/%d entities", done, total)
				if done == total {
					fmt.Fprintln(stdout)
				}
			}
		}
	}
	if flags.LoadDist != "" {
		f, err := os.Open(flags.LoadDist)
		if err != nil {
			return session.Result{}, err
		}
		opts.Learned, err = serd.LoadDistributions(f)
		f.Close()
		if err != nil {
			return session.Result{}, err
		}
		fmt.Fprintf(stdout, "reusing O-distribution from %s\n", flags.LoadDist)
	} else {
		fmt.Fprintf(stdout, "S1 generator: %s\n", gen.Describe())
	}
	// The output streams during S2 instead of materializing a second copy
	// at the end: rows accumulate in temp files under -out and an atomic
	// finalize publishes them only after synthesis succeeds, so a crashed
	// or cancelled run never leaves a torn dataset behind.
	sw, err := serd.NewStreamWriter(flags.Out, cfg.schema)
	if err != nil {
		return session.Result{}, err
	}
	opts.Stream = sw
	res, err := serd.SynthesizeContext(ctx, real, opts)
	if err != nil {
		sw.Abort()
		return session.Result{}, err
	}
	if err := sw.Finalize(); err != nil {
		return session.Result{}, err
	}
	if flags.SaveDist != "" {
		// The JSON distribution format is the GMM joint's; config
		// validation refuses -save-dist with any other backend.
		joint, ok := res.OReal.(*serd.Joint)
		if !ok {
			return session.Result{}, fmt.Errorf("-save-dist: O_real is a %T, not a GMM joint", res.OReal)
		}
		f, err := os.Create(flags.SaveDist)
		if err != nil {
			return session.Result{}, err
		}
		if err := serd.SaveDistributions(f, joint); err != nil {
			f.Close()
			return session.Result{}, err
		}
		if err := f.Close(); err != nil {
			return session.Result{}, err
		}
		fmt.Fprintf(stdout, "saved O-distribution to %s\n", flags.SaveDist)
	}
	if cfg.jr != nil {
		if err := cfg.jr.Lineage("output", flags.Out); err != nil {
			return session.Result{}, err
		}
	}
	fmt.Fprintf(stdout, "synthesized %+v -> %s\n", res.Syn.Stats(), flags.Out)
	fmt.Fprintf(stdout, "JSD(O_syn, O_real)=%.4f  sampled matches=%d  rejected: %d by distribution, %d by discriminator\n",
		res.JSD, res.SampledMatches, res.RejectedByDistribution, res.RejectedByDiscriminator)

	if flags.Audit {
		if err := privacyAudit(cfg, real, res.Syn, stdout); err != nil {
			return session.Result{}, err
		}
	}

	epsTotal, deltaTotal := cfg.ledger.Finish()
	if len(cfg.ledger.Entries()) > 0 {
		fmt.Fprintf(stdout, "privacy ledger: composed ε=%.4f δ=%.2g over %d charges\n",
			epsTotal, deltaTotal, len(cfg.ledger.Entries()))
	}

	summary := map[string]float64{
		"jsd":                       res.JSD,
		"entities":                  float64(res.Syn.A.Len() + res.Syn.B.Len()),
		"matches":                   float64(len(res.Syn.Matches)),
		"sampled_matches":           float64(res.SampledMatches),
		"rejected_by_distribution":  float64(res.RejectedByDistribution),
		"rejected_by_discriminator": float64(res.RejectedByDiscriminator),
	}
	// The journal's run_end carries the summary too: the run registry
	// reads it from there, and `serd runs compare` gates on its jsd.
	out := session.Result{Summary: summary}
	if len(cfg.ledger.Entries()) > 0 {
		out.Privacy = cfg.ledger.Summary()
	}
	return out, nil
}

// privacyAudit computes the Table III privacy metrics over the run's real
// and synthesized datasets. With -audit-epsilon, each metric is released
// through the Laplace mechanism (ε/3 each, unit sensitivity assumed over
// the subsampled evaluation — an illustrative ledgered release, not a
// tight bound) and charged to the privacy ledger first, so budget
// enforcement applies before the noisy values are computed.
func privacyAudit(cfg synthConfig, real, syn *serd.ER, stdout io.Writer) error {
	r := rand.New(rand.NewSource(cfg.flags.Seed))
	hr, err := serd.HittingRate(real, syn, 0.9, r)
	if err != nil {
		return err
	}
	dcr, err := serd.DCR(real, syn, r)
	if err != nil {
		return err
	}
	nndr, err := serd.NNDR(real, syn, r)
	if err != nil {
		return err
	}
	if cfg.flags.AuditEpsilon > 0 {
		each := cfg.flags.AuditEpsilon / 3
		noise := rand.New(rand.NewSource(cfg.flags.Seed + 101))
		for _, m := range []struct {
			label string
			value *float64
		}{
			{"privacy_audit.hitting_rate", &hr},
			{"privacy_audit.dcr", &dcr},
			{"privacy_audit.nndr", &nndr},
		} {
			if err := cfg.ledger.ChargeLaplace(m.label, each); err != nil {
				return err
			}
			*m.value = serd.LaplaceRelease(*m.value, 1, each, noise)
		}
		fmt.Fprintf(stdout, "privacy audit (ε=%g Laplace): hitting rate=%.3f%%  DCR=%.3f  NNDR=%.3f\n", cfg.flags.AuditEpsilon, hr, dcr, nndr)
		return nil
	}
	fmt.Fprintf(stdout, "privacy audit: hitting rate=%.3f%%  DCR=%.3f  NNDR=%.3f\n", hr, dcr, nndr)
	return nil
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			out = append(out, line)
		}
	}
	return out, sc.Err()
}
