package config

import (
	"reflect"
	"strings"
	"testing"

	"serd/internal/generator"
)

func TestGeneratorsValidate(t *testing.T) {
	cases := []struct {
		name    string
		c       Generators
		wantErr string
	}{
		{name: "off", c: Generators{}},
		{name: "gmm", c: Generators{Name: "gmm"}},
		{name: "privbayes bare", c: Generators{Name: "privbayes"}},
		{name: "privbayes tuned", c: Generators{Name: "privbayes", Epsilon: 2, Delta: 1e-6, Bins: 16}},
		{name: "unknown backend", c: Generators{Name: "copula"}, wantErr: "-s1-generator"},
		{name: "params without backend", c: Generators{Epsilon: 1}, wantErr: "require -s1-generator"},
		{name: "gmm with params", c: Generators{Name: "gmm", Bins: 8}, wantErr: "privbayes backend only"},
		{name: "negative epsilon", c: Generators{Name: "privbayes", Epsilon: -1}, wantErr: ">= 0"},
		{name: "delta at one", c: Generators{Name: "privbayes", Delta: 1}, wantErr: "[0,1)"},
		{name: "negative bins", c: Generators{Name: "privbayes", Bins: -3}, wantErr: ">= 0"},
		{name: "one bin", c: Generators{Name: "privbayes", Bins: 1}, wantErr: "-gen-bins 1"},
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

func TestGeneratorsBuild(t *testing.T) {
	// No flag builds the gmm backend, the same value -s1-generator gmm does.
	off := Generators{}
	if gen, err := off.Build(); err != nil || gen != (generator.GMM{}) {
		t.Fatalf("Build with no -s1-generator = %v, %v; want generator.GMM{}", gen, err)
	}

	gmm := Generators{Name: "gmm"}
	g, err := gmm.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "gmm" {
		t.Errorf("gmm Build().Name() = %q", g.Name())
	}

	pb := Generators{Name: "privbayes", Epsilon: 2, Delta: 1e-6, Bins: 16}
	g, err = pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := g.(generator.PrivBayes)
	if !ok {
		t.Fatalf("privbayes Build() = %T", g)
	}
	if got.Epsilon != 2 || got.Delta != 1e-6 || got.Bins != 16 {
		t.Errorf("privbayes params = %+v", got)
	}

	// Build re-validates, so a CLI-bypassing caller still gets the check.
	if _, err := (&Generators{Name: "nope"}).Build(); err == nil {
		t.Error("invalid backend name accepted by Build")
	}
}

// TestGeneratorsJournaledConfigOneSpelling pins that no -s1-generator
// and -s1-generator gmm are one run: both journal the identical config,
// so a resume accepts either spelling. A privbayes run journals its own
// backend and parameters.
func TestGeneratorsJournaledConfigOneSpelling(t *testing.T) {
	c := &Serd{In: "in", Out: "out", SchemaSpec: "x:text"}
	off := c.JournaledConfig()
	c.Generators = Generators{Name: "gmm"}
	if gmm := c.JournaledConfig(); !reflect.DeepEqual(off, gmm) {
		t.Errorf("no-flag config %v differs from -s1-generator gmm config %v", off, gmm)
	}
	if off["s1_generator"] != "gmm" {
		t.Errorf("no-flag s1_generator = %q, want gmm", off["s1_generator"])
	}
	c.Generators = Generators{Name: "privbayes", Epsilon: 2.5, Bins: 16}
	cfg := c.JournaledConfig()
	want := map[string]string{
		"s1_generator":      "privbayes",
		"generator_epsilon": "2.5",
		"generator_delta":   "0",
		"generator_bins":    "16",
	}
	for k, v := range want {
		if cfg[k] != v {
			t.Errorf("config[%q] = %q, want %q", k, cfg[k], v)
		}
	}
}

// FuzzGeneratorsValidate throws arbitrary flag combinations at Validate
// and Build: neither may panic, Build must refuse whatever Validate
// refuses, and an accepted config must build its resolved backend (gmm
// for an empty name).
func FuzzGeneratorsValidate(f *testing.F) {
	f.Add("", 0.0, 0.0, 0)
	f.Add("gmm", 0.0, 0.0, 0)
	f.Add("privbayes", 2.0, 1e-6, 16)
	f.Add("privbayes", -1.0, 1.5, 1)
	f.Add("copula", 0.5, 0.0, -7)
	f.Fuzz(func(t *testing.T, name string, eps, delta float64, bins int) {
		c := Generators{Name: name, Epsilon: eps, Delta: delta, Bins: bins}
		err := c.Validate()
		gen, berr := c.Build()
		if err != nil {
			if berr == nil {
				t.Fatalf("Validate rejected %+v (%v) but Build accepted", c, err)
			}
			return
		}
		if berr != nil {
			t.Fatalf("Validate accepted %+v but Build rejected: %v", c, berr)
		}
		if gen == nil || gen.Name() != c.Backend() {
			t.Fatalf("Build(%+v) = %v, want backend %q", c, gen, c.Backend())
		}
	})
}
