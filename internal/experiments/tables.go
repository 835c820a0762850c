package experiments

import (
	"fmt"
	"time"

	"serd/internal/core"
	"serd/internal/datagen"
	"serd/internal/dataset"
	"serd/internal/gan"
	"serd/internal/privacy"
	"serd/internal/textsynth"
)

// TableIRow is one example row of Table I: a string synthesis sample.
type TableIRow struct {
	Domain      string
	Input       string
	TargetSim   float64
	Output      string
	AchievedSim float64
}

// TableI reproduces the paper's Table I: one synthesized string per
// domain, at the paper's example target similarities, using the SERD
// string synthesizer trained/configured on that dataset's background
// corpus.
func (s *Suite) TableI() ([]TableIRow, error) {
	done := s.track("table1")
	cases := []struct {
		dataset, column, domain, input string
		target                         float64
	}{
		{"DBLP-ACM", "authors", "authors (DBLP-ACM)", "Jennifer Bernstein, Meikel Stonebraker, Guojing Lin", 0.55},
		{"Restaurant", "name", "name (Restaurant)", "Forest Family Restaurant", 0.73},
		{"Restaurant", "address", "address (Restaurant)", "6th street around broadway", 0.4},
		{"Walmart-Amazon", "title", "title (Walmart-Amazon)", "Asus 15.6 Laptop Intel Atom 2gb Memory 32gb Flash", 0.13},
		{"iTunes-Amazon", "song_name", "Song_Name (iTunes-Amazon)", "I'll Be Home For The Holiday", 0.09},
	}
	var rows []TableIRow
	for _, c := range cases {
		if !contains(s.cfg.Datasets, c.dataset) {
			continue
		}
		g, err := s.Generated(c.dataset)
		if err != nil {
			return nil, err
		}
		synths, err := s.Synthesizers(g)
		if err != nil {
			return nil, err
		}
		syn, ok := synths[c.column]
		if !ok {
			return nil, fmt.Errorf("experiments: no synthesizer for %s/%s", c.dataset, c.column)
		}
		out, achieved := syn.Synthesize(c.input, c.target, s.Rand(401))
		rows = append(rows, TableIRow{
			Domain: c.domain, Input: c.input, TargetSim: c.target,
			Output: out, AchievedSim: achieved,
		})
	}
	done(len(rows))
	return rows, nil
}

// TableIIRow pairs a dataset's paper statistics with the scaled surrogate
// actually generated.
type TableIIRow struct {
	Dataset, Domain string
	Paper, Scaled   dataset.Stats
}

// TableII reproduces the dataset-statistics table.
func (s *Suite) TableII() ([]TableIIRow, error) {
	done := s.track("table2")
	var rows []TableIIRow
	for _, name := range s.cfg.Datasets {
		g, err := s.Generated(name)
		if err != nil {
			return nil, err
		}
		var domain string
		for _, reg := range datagen.Registry() {
			if reg.Name == name {
				domain = reg.Domain
			}
		}
		rows = append(rows, TableIIRow{Dataset: name, Domain: domain, Paper: g.PaperStats, Scaled: g.ER.Stats()})
	}
	done(len(rows))
	return rows, nil
}

// TableIIIRow is one dataset row of the privacy evaluation.
type TableIIIRow struct {
	Dataset string
	// HittingRate and DCR per method, keyed by Method.
	HittingRate map[Method]float64
	DCR         map[Method]float64
}

// TableIII reproduces Exp-4: Hitting Rate (%) and DCR for SERD, SERD- and
// EMBench on every dataset. Entity comparisons are sampled (privacy.Options
// caps) to bound the quadratic cost; the metrics are averages, so uniform
// sampling is unbiased.
func (s *Suite) TableIII() ([]TableIIIRow, error) {
	done := s.track("table3")
	var rows []TableIIIRow
	for _, name := range s.cfg.Datasets {
		g, err := s.Generated(name)
		if err != nil {
			return nil, err
		}
		row := TableIIIRow{
			Dataset:     name,
			HittingRate: make(map[Method]float64),
			DCR:         make(map[Method]float64),
		}
		for _, method := range SynMethods() {
			syn, err := s.SynER(name, method)
			if err != nil {
				return nil, err
			}
			opts := privacy.Options{MaxSyn: 150, MaxReal: 150, Rand: s.Rand(501)}
			hr, err := privacy.HittingRate(g.ER, syn, opts)
			if err != nil {
				return nil, err
			}
			dcr, err := privacy.DCR(g.ER, syn, opts)
			if err != nil {
				return nil, err
			}
			row.HittingRate[method] = hr
			row.DCR[method] = dcr
		}
		rows = append(rows, row)
	}
	done(len(rows))
	return rows, nil
}

// TableIVRow is one dataset row of the efficiency evaluation.
type TableIVRow struct {
	Dataset string
	// Offline is the time to train the string-synthesis models (the
	// transformer bank for every textual column) and the GAN.
	Offline time.Duration
	// Online is the time to synthesize the ER dataset.
	Online time.Duration
	// TextualColumns and Entities are the drivers the paper calls out:
	// offline time grows with the former, online time with the latter.
	TextualColumns, Entities int
}

// TableIV reproduces Exp-5: offline (model training) and online (dataset
// synthesis) wall-clock per dataset. The transformer bank here is the
// CPU-scaled micro configuration; absolute times are far below the paper's
// hours, but the proportionality to #textual-columns (offline) and
// #entities (online) is what the experiment checks.
func (s *Suite) TableIV() ([]TableIVRow, error) {
	done := s.track("table4")
	var rows []TableIVRow
	for _, name := range s.cfg.Datasets {
		g, err := s.Generated(name)
		if err != nil {
			return nil, err
		}
		textCols := 0
		for _, col := range g.ER.Schema().Cols {
			if col.Kind == dataset.Textual {
				textCols++
			}
		}

		// Offline: one micro transformer bank per textual column + the GAN.
		start := time.Now()
		for _, col := range g.ER.Schema().Cols {
			if col.Kind != dataset.Textual {
				continue
			}
			opts := microTransformerOptions(s.cfg.Seed)
			if _, err := textsynth.TrainTransformer(s.ctx(), g.Background[col.Name], col.Sim, opts); err != nil {
				return nil, fmt.Errorf("experiments: offline %s/%s: %w", name, col.Name, err)
			}
		}
		enc, err := gan.NewEncoder(g.ER.Schema(), []*dataset.Relation{g.ER.A, g.ER.B}, 0)
		if err != nil {
			return nil, err
		}
		trainRows := make([][]string, 0, g.ER.A.Len())
		for _, e := range g.ER.A.Entities {
			trainRows = append(trainRows, e.Values)
		}
		if _, err := gan.Train(s.ctx(), enc, trainRows, gan.Options{Epochs: 5, Seed: s.cfg.Seed}); err != nil {
			return nil, err
		}
		offline := time.Since(start)

		// Online: the SERD synthesis run (cached runs are not reused here —
		// the measurement needs a fresh clock).
		start = time.Now()
		if _, err := s.runSERDFresh(g); err != nil {
			return nil, err
		}
		online := time.Since(start)

		rows = append(rows, TableIVRow{
			Dataset: name, Offline: offline, Online: online,
			TextualColumns: textCols, Entities: g.ER.A.Len() + g.ER.B.Len(),
		})
	}
	done(len(rows))
	return rows, nil
}

// runSERDFresh synthesizes without touching the suite cache (for timing).
func (s *Suite) runSERDFresh(g *datagen.Generated) (*dataset.ER, error) {
	synths, err := s.Synthesizers(g)
	if err != nil {
		return nil, err
	}
	res, err := core.Synthesize(s.ctx(), g.ER, s.serdOptions(synths, 5))
	if err != nil {
		return nil, err
	}
	return res.Syn, nil
}

// microTransformerOptions is the CPU-scale transformer-bank configuration
// used for Table IV's offline phase.
func microTransformerOptions(seed int64) textsynth.TransformerOptions {
	return textsynth.TransformerOptions{
		Buckets:        4,
		PairsPerBucket: 16,
		Epochs:         1,
		BatchSize:      4,
		Seed:           seed,
		DP:             &textsynth.DPOptions{ClipNorm: 1, Noise: 1.1, Delta: 1e-5},
	}
}

func contains(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
