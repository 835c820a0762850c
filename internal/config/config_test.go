package config

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"serd/internal/runstore"
)

// toolFlags registers each binary's flag surface exactly as its main does
// and snapshots name -> (default, usage).
func toolFlags(t *testing.T) map[string]map[string]*flag.Flag {
	t.Helper()
	tools := map[string]func(*flag.FlagSet){
		"serd":        func(fs *flag.FlagSet) { RegisterSerd(fs) },
		"experiments": func(fs *flag.FlagSet) { RegisterExperiments(fs) },
		"datagen":     func(fs *flag.FlagSet) { RegisterDatagen(fs) },
	}
	out := make(map[string]map[string]*flag.Flag, len(tools))
	for name, register := range tools {
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		register(fs)
		flags := map[string]*flag.Flag{}
		fs.VisitAll(func(f *flag.Flag) { flags[f.Name] = f })
		out[name] = flags
	}
	return out
}

// parityExempt lists shared flag names whose semantics genuinely differ
// between tools: serd's -size-a/-size-b set the synthesized relation
// sizes, datagen's override the generated ones. Nothing else may diverge.
var parityExempt = map[string]bool{"size-a": true, "size-b": true}

// TestFlagParity asserts every flag name registered by two or more
// binaries agrees on default and help text across all of them — the
// regression guard for the flag parity shipped piecemeal in PRs 1-4.
func TestFlagParity(t *testing.T) {
	tools := toolFlags(t)
	// name -> tool -> flag
	byName := map[string]map[string]*flag.Flag{}
	for tool, flags := range tools {
		for name, f := range flags {
			if byName[name] == nil {
				byName[name] = map[string]*flag.Flag{}
			}
			byName[name][tool] = f
		}
	}
	for name, owners := range byName {
		if len(owners) < 2 || parityExempt[name] {
			continue
		}
		var refTool string
		var ref *flag.Flag
		for tool, f := range owners {
			if ref == nil {
				refTool, ref = tool, f
				continue
			}
			if f.DefValue != ref.DefValue {
				t.Errorf("flag -%s: default %q in %s but %q in %s", name, ref.DefValue, refTool, f.DefValue, tool)
			}
			if f.Usage != ref.Usage {
				t.Errorf("flag -%s: usage diverges between %s (%q) and %s (%q)", name, refTool, ref.Usage, tool, f.Usage)
			}
		}
	}
}

// TestSharedFlagsComeFromRegistry asserts that every flag shared by two
// or more tools (except the documented size-a/size-b exemption) has a
// canonical entry in the shared spec table, and that the registered
// default and usage match that entry — so a future flag added inline to
// two mains without going through the registry fails loudly.
func TestSharedFlagsComeFromRegistry(t *testing.T) {
	tools := toolFlags(t)
	count := map[string]int{}
	for _, flags := range tools {
		for name := range flags {
			count[name]++
		}
	}
	for name, n := range count {
		if n < 2 || parityExempt[name] {
			continue
		}
		spec, ok := SharedSpec(name)
		if !ok {
			t.Errorf("flag -%s is registered by %d tools but missing from the shared spec table", name, n)
			continue
		}
		for tool, flags := range tools {
			f, used := flags[name]
			if !used {
				continue
			}
			if f.Usage != spec.Usage {
				t.Errorf("flag -%s in %s: usage %q != shared spec %q", name, tool, f.Usage, spec.Usage)
			}
		}
	}
}

// TestCoreSharedFlagsPresent pins the minimum shared surface: the flags
// the tools are documented to agree on must exist where expected.
func TestCoreSharedFlagsPresent(t *testing.T) {
	tools := toolFlags(t)
	want := map[string][]string{
		"seed":         {"serd", "experiments", "datagen"},
		"metrics-addr": {"serd", "experiments", "datagen"},
		"report":       {"serd", "experiments", "datagen"},
		"trace":        {"serd", "experiments", "datagen"},
		"run-store":    {"serd", "experiments", "datagen"},
		"workers":      {"serd", "experiments"},
		"transformer":  {"serd", "experiments"},
		"journal":      {"serd", "datagen"},
		"no-journal":   {"serd", "datagen"},
		"no-report":    {"serd", "datagen"},
		"s1-generator": {"serd", "experiments", "datagen"},
		"gen-epsilon":  {"serd", "experiments", "datagen"},
		"gen-delta":    {"serd", "experiments", "datagen"},
		"gen-bins":     {"serd", "experiments", "datagen"},
	}
	for name, owners := range want {
		if _, ok := SharedSpec(name); !ok {
			t.Errorf("flag -%s missing from the shared spec table", name)
		}
		for _, tool := range owners {
			if _, ok := tools[tool][name]; !ok {
				t.Errorf("tool %s is missing shared flag -%s", tool, name)
			}
		}
	}
}

func TestSerdValidate(t *testing.T) {
	base := func(edit func(*Serd)) Serd {
		c := Serd{In: "a", Out: "b", SchemaSpec: "x:text"}
		if edit != nil {
			edit(&c)
		}
		return c
	}
	pb := Generators{Name: "privbayes", Epsilon: 2}
	cases := []struct {
		name    string
		c       Serd
		wantErr string
	}{
		{name: "valid", c: base(nil)},
		{name: "missing schema", c: Serd{In: "a", Out: "b"}, wantErr: "-schema"},
		{name: "resume without dir", c: base(func(c *Serd) { c.Resume = true }), wantErr: "-checkpoint-dir"},
		{name: "load-dist default backend", c: base(func(c *Serd) { c.LoadDist = "d.json" })},
		{name: "save-dist explicit gmm", c: base(func(c *Serd) { c.SaveDist = "d.json"; c.Generators.Name = "gmm" })},
		{name: "load-dist with privbayes", c: base(func(c *Serd) { c.LoadDist = "d.json"; c.Generators = pb }), wantErr: "-load-dist"},
		{name: "save-dist with privbayes", c: base(func(c *Serd) { c.SaveDist = "d.json"; c.Generators = pb }), wantErr: "-save-dist"},
	}
	for _, tc := range cases {
		err := tc.c.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestDatagenValidate(t *testing.T) {
	if err := (&Datagen{Out: "x"}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (&Datagen{}).Validate(); err == nil {
		t.Fatal("missing -out accepted")
	}
}

func TestExperimentsValidate(t *testing.T) {
	dir := t.TempDir()
	scale := filepath.Join(dir, "BENCH_scale.json")
	if err := runstore.WriteBench(scale, runstore.Report{Suite: "scale"}); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(`{"seed":1,"rows":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := func(mut func(*Experiments)) Experiments {
		c := Experiments{ScaleSizes: "1000,10000", DPBenchEps: "0.5,2"}
		if mut != nil {
			mut(&c)
		}
		return c
	}
	cases := []struct {
		name      string
		c         Experiments
		wantErr   string
		wantBench string
	}{
		{name: "valid", c: base(nil)},
		{name: "zero value", c: Experiments{}},
		{name: "unknown suite", c: base(func(c *Experiments) { c.Bench = "speed" }), wantErr: "unknown suite"},
		{name: "size does not parse", c: base(func(c *Experiments) { c.ScaleSizes = "1000,lots" }), wantErr: "-bench-scale-sizes"},
		{name: "size below 2", c: base(func(c *Experiments) { c.ScaleSizes = "0" }), wantErr: "below 2"},
		{name: "scale without sizes", c: base(func(c *Experiments) { c.Bench = "scale"; c.ScaleSizes = "" }), wantErr: "-bench-scale-sizes"},
		{name: "eps does not parse", c: base(func(c *Experiments) { c.DPBenchEps = "0.5,x" }), wantErr: "-bench-dp-eps"},
		{name: "eps zero", c: base(func(c *Experiments) { c.DPBenchEps = "0" }), wantErr: "positive"},
		{name: "eps negative", c: base(func(c *Experiments) { c.DPBenchEps = "2,-1" }), wantErr: "positive"},
		{name: "against picks the file's suite", c: base(func(c *Experiments) { c.BenchAgainst = scale }), wantBench: "scale"},
		{name: "agreeing suite", c: base(func(c *Experiments) { c.Bench = "scale"; c.BenchAgainst = scale }), wantBench: "scale"},
		{name: "disagreeing suite", c: base(func(c *Experiments) { c.Bench = "dp"; c.BenchAgainst = scale }), wantErr: "disagrees"},
		{name: "pre-schema baseline", c: base(func(c *Experiments) { c.BenchAgainst = old }), wantErr: `"suite"`},
		{name: "out alone is core", c: base(func(c *Experiments) { c.BenchOut = "x.json" }), wantBench: "core"},
		{name: "explicit suite with out", c: base(func(c *Experiments) { c.Bench = "dp"; c.BenchOut = "x.json" }), wantBench: "dp"},
		{name: "trace with bench", c: base(func(c *Experiments) { c.Bench = "core"; c.TracePath = "x.json" }), wantErr: "-trace is not supported"},
		{name: "trace with out", c: base(func(c *Experiments) { c.BenchOut = "b.json"; c.TracePath = "x.json" }), wantErr: "-trace is not supported"},
		{name: "trace with against", c: base(func(c *Experiments) { c.BenchAgainst = scale; c.TracePath = "x.json" }), wantErr: "-trace is not supported"},
		{name: "metrics-addr with bench", c: base(func(c *Experiments) { c.Bench = "core"; c.MetricsAddr = ":0" }), wantErr: "-metrics-addr is not supported"},
		{name: "metrics-addr with out", c: base(func(c *Experiments) { c.BenchOut = "b.json"; c.MetricsAddr = ":0" }), wantErr: "-metrics-addr is not supported"},
		{name: "metrics-addr with against", c: base(func(c *Experiments) { c.BenchAgainst = scale; c.MetricsAddr = ":0" }), wantErr: "-metrics-addr is not supported"},
		{name: "report with bench", c: base(func(c *Experiments) { c.Bench = "core"; c.ReportPath = "r.json" }), wantErr: "-report is not supported"},
		{name: "report with out", c: base(func(c *Experiments) { c.BenchOut = "b.json"; c.ReportPath = "r.json" }), wantErr: "-report is not supported"},
		{name: "report with against", c: base(func(c *Experiments) { c.BenchAgainst = scale; c.ReportPath = "r.json" }), wantErr: "-report is not supported"},
		{name: "trace, metrics-addr and report without a bench", c: base(func(c *Experiments) {
			c.TracePath, c.MetricsAddr, c.ReportPath = "x.json", ":0", "r.json"
		})},
	}
	for _, tc := range cases {
		err := tc.c.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			} else if tc.c.Bench != tc.wantBench {
				t.Errorf("%s: resolved suite %q, want %q", tc.name, tc.c.Bench, tc.wantBench)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
	c := base(nil)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.BenchSizes, []int{1000, 10000}) || !reflect.DeepEqual(c.BenchEpsilons, []float64{0.5, 2}) {
		t.Errorf("parsed lists = %v, %v", c.BenchSizes, c.BenchEpsilons)
	}
}

// TestSerdJournaledConfig pins the journaled run-config shape: resume
// compatibility depends on these exact keys and renderings.
func TestSerdJournaledConfig(t *testing.T) {
	c := &Serd{In: "in", Out: "out", SchemaSpec: "x:text", SizeA: 5, EpsilonBudget: 2.5}
	cfg := c.JournaledConfig()
	want := map[string]string{
		"in": "in", "out": "out", "schema": "x:text",
		"size_a": "5", "size_b": "0",
		"no_reject": "false", "transformer": "false",
		"epsilon_budget": "2.5", "budget_mode": "abort",
		"s1_generator": "gmm", "generator_epsilon": "0",
		"generator_delta": "0", "generator_bins": "0",
	}
	if len(cfg) != len(want) {
		t.Fatalf("config = %v, want %v", cfg, want)
	}
	for k, v := range want {
		if cfg[k] != v {
			t.Errorf("config[%q] = %q, want %q", k, cfg[k], v)
		}
	}
	c.BudgetWarn = true
	if got := c.JournaledConfig()["budget_mode"]; got != "warn" {
		t.Errorf("budget_mode = %q with -budget-warn, want warn", got)
	}
	// Execution parameters must never leak into the journaled config.
	c.Workers = 8
	c.CheckpointDir = "/tmp/ckpt"
	for k := range c.JournaledConfig() {
		if k == "workers" || k == "checkpoint_dir" {
			t.Errorf("execution parameter %q leaked into the journaled config", k)
		}
	}
}
