package experiments

import (
	"fmt"
	"runtime"
	"time"

	"serd/internal/runstore"
	"serd/internal/telemetry"
)

// CoreBench synthesizes each configured dataset once with a private
// telemetry registry and distills the counters the bench harness tracks
// over time into one row per dataset (keyed by name), the rows of the
// "core" suite: wall_seconds, S2 throughput (entities_per_sec: accepted
// entities over S2 wall time), the final JSD between O_real and O_syn,
// the S2 attempt count split by rejection cause (§V case 1 vs case 2), the
// EM iterations across every GMM fit, the GC pause time the run added and
// the process peak RSS. Peak RSS is cumulative across the bench process,
// so only the last row isolates a single dataset — it is tracked for
// memory-blowup regressions, not per-dataset attribution. Any Metrics
// recorder already in cfg is ignored — each dataset gets an isolated
// registry so counters are not conflated across datasets.
func CoreBench(cfg Config) ([]runstore.Row, error) {
	cfg = cfg.withDefaults()
	var rows []runstore.Row
	for _, name := range cfg.Datasets {
		reg := telemetry.NewRegistry()
		one := cfg
		one.Datasets = []string{name}
		one.Metrics = reg
		suite := NewSuite(one)
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		syn, err := suite.SynER(name, MethodSERD)
		if err != nil {
			return nil, fmt.Errorf("experiments: core bench %s: %w", name, err)
		}
		wall := time.Since(start).Seconds()
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		snap := reg.Snapshot()
		eps, _ := reg.Gauge("core.s2.entities_per_sec")
		jsd, _ := reg.Gauge("core.s2.jsd_final")
		m := map[string]float64{
			"entities":               float64(syn.A.Len() + syn.B.Len()),
			"wall_seconds":           wall,
			"entities_per_sec":       eps,
			"jsd":                    jsd,
			"attempts":               snap.Counters["core.s2.attempts"],
			"rejected_discriminator": snap.Counters["core.s2.rejected.discriminator"],
			"rejected_distribution":  snap.Counters["core.s2.rejected.distribution"],
			"em_iterations":          snap.Counters["gmm.em.iterations"],
			"gc_pause_seconds":       float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9,
		}
		addPeakRSS(m)
		rows = append(rows, runstore.Row{Key: name, Metrics: m})
	}
	return rows, nil
}

// addPeakRSS records the process high-water RSS as peak_rss_bytes where
// the OS exposes it; elsewhere the metric is absent.
func addPeakRSS(m map[string]float64) {
	if rss, ok := telemetry.ReadPeakRSS(); ok {
		m["peak_rss_bytes"] = float64(rss)
	}
}
