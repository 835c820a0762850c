package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"serd/internal/datagen"
	"serd/internal/dataset"
)

// workload is one benchmark input shape: the surrogate real dataset the
// seed generates, and the synthesis configuration the CLI would run on it.
type workload struct {
	name string
	// dataset is the datagen registry name; real* size the generated
	// real input.
	dataset             string
	realA, realB, realM int
	// outA/outB are the synthesized table sizes.
	outA, outB int
	// privbayes selects the DP S1 backend at epsilon; otherwise the
	// explicit gmm backend runs.
	privbayes bool
	epsilon   float64
	noReject  bool
	// blocked labels S3 through the CLI's default union blocker.
	blocked bool
	// durable arms the journal, the privacy ledger's journal and a
	// checkpoint every checkpointEvery accepted entities.
	durable bool
	workers int
	// inputs is how many real datasets one seed stands for: a run
	// measures the workload rather than one draw of its inputs, since
	// rejection rates, and with them S2's cost, differ several-fold
	// between draws. Rejection on the Restaurant data swings most.
	inputs int
}

const checkpointEvery = 25

var workloads = []workload{
	{
		name: "restaurant-reject", dataset: "Restaurant",
		realA: 200, realB: 200, realM: 26, outA: 100, outB: 100,
		workers: 1, inputs: 12,
	},
	{
		name: "walmart-dp-durable", dataset: "Walmart-Amazon",
		realA: 80, realB: 690, realM: 36, outA: 40, outB: 200,
		privbayes: true, epsilon: 1, noReject: true, blocked: true, durable: true,
		workers: 2, inputs: 8,
	},
	{
		name: "dblp-bigreal", dataset: "DBLP-ACM",
		realA: 300, realB: 264, realM: 255, outA: 60, outB: 60,
		workers: 2, inputs: 10,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// schema returns the workload's schema, the one datagen writes.
func (w workload) schema() (*dataset.Schema, error) {
	switch w.dataset {
	case "Restaurant":
		return datagen.RestaurantSchema(), nil
	case "Walmart-Amazon":
		return datagen.ProductsSchema(), nil
	case "DBLP-ACM":
		return datagen.ScholarSchema(), nil
	}
	return nil, fmt.Errorf("workload %s: no schema for dataset %q", w.name, w.dataset)
}

// writeReal generates the workload's real dataset from seed and writes it
// in the layout cmd/datagen produces: A.csv, B.csv, matches.csv and one
// background_<column>.txt corpus per textual column.
func (w workload) writeReal(dir string, seed int64) error {
	gen, err := datagen.ByName(w.dataset)
	if err != nil {
		return err
	}
	g, err := gen.Gen(datagen.Config{Seed: seed, SizeA: w.realA, SizeB: w.realB, Matches: w.realM})
	if err != nil {
		return fmt.Errorf("generating %s: %w", w.dataset, err)
	}
	if err := dataset.SaveDir(dir, g.ER); err != nil {
		return err
	}
	cols := make([]string, 0, len(g.Background))
	for col := range g.Background {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	for _, col := range cols {
		var b strings.Builder
		for _, s := range g.Background[col] {
			b.WriteString(s)
			b.WriteByte('\n')
		}
		if err := os.WriteFile(filepath.Join(dir, "background_"+col+".txt"), []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
