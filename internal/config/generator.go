package config

import (
	"errors"
	"fmt"
	"strconv"

	"serd/internal/generator"
)

// generatorSpecs is the shared S1-backend flag family, appended to the
// canonical table at init. serd and experiments bind it (serd synthesizes
// with the backend, experiments threads it into the suite's synthesis);
// datagen binds it too for surface parity but rejects a non-empty value —
// datagen never runs S1, and per the blocking family's precedent a flag
// that cannot take effect is a mistake, not a no-op. Numeric defaults of
// 0 mean "use the backend's own default" so the generator package stays
// the single source of parameter defaults.
var generatorSpecs = []Spec{
	{Name: "s1-generator", Def: "", Usage: "S1 generative backend: gmm|privbayes (empty = gmm, the paper's Gaussian mixtures; privbayes fits noisy pairwise marginals under the -gen-epsilon DP budget)"},
	{Name: "gen-epsilon", Def: float64(0), Usage: "privbayes backend: total (ε, δ)-DP budget of the S1 fit, charged to the privacy ledger (0 = backend default 1)"},
	{Name: "gen-delta", Def: float64(0), Usage: "privbayes backend: δ at which the S1 fit's ε is accounted (0 = backend default 1e-5)"},
	{Name: "gen-bins", Def: int(0), Usage: "privbayes backend: per-dimension discretization buckets (0 = backend default 8)"},
}

func init() { sharedSpecs = append(sharedSpecs, generatorSpecs...) }

// Generators holds the parsed S1-backend flag family.
type Generators struct {
	Name    string
	Epsilon float64
	Delta   float64
	Bins    int
}

// register binds the generator flag family into fs.
func (c *Generators) register(b binder) {
	b.str(&c.Name, "s1-generator")
	b.float(&c.Epsilon, "gen-epsilon")
	b.float(&c.Delta, "gen-delta")
	b.integer(&c.Bins, "gen-bins")
}

// Enabled reports whether -s1-generator was given at all.
func (c *Generators) Enabled() bool { return c.Name != "" }

// Backend is the resolved backend name: an empty -s1-generator is gmm.
func (c *Generators) Backend() string {
	if c.Name == "" {
		return "gmm"
	}
	return c.Name
}

// Validate checks the generator flags in isolation. Strictness over
// silence, mirroring the -block-* family: the gmm backend (also the
// default) takes no -gen-* parameter — it is the non-private reference
// fit, so a DP budget on it would be silently ignored.
func (c *Generators) Validate() error {
	switch c.Backend() {
	case "gmm":
		if c.Epsilon != 0 || c.Delta != 0 || c.Bins != 0 {
			return errors.New("-gen-* flags apply to the privbayes backend only (they require -s1-generator privbayes; the gmm backend spends no DP budget)")
		}
		return nil
	case "privbayes":
		// Its parameters are checked below.
	default:
		return fmt.Errorf("-s1-generator %q: want gmm or privbayes", c.Name)
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("-gen-epsilon %g must be >= 0", c.Epsilon)
	}
	if c.Delta < 0 || c.Delta >= 1 {
		return fmt.Errorf("-gen-delta %g outside [0,1)", c.Delta)
	}
	if c.Bins < 0 {
		return fmt.Errorf("-gen-bins %d must be >= 0", c.Bins)
	}
	if c.Bins == 1 {
		return errors.New("-gen-bins 1 cannot represent a distribution; use >= 2 (or 0 for the default)")
	}
	return nil
}

// Build constructs the configured backend; no flag builds generator.GMM.
func (c *Generators) Build() (generator.Generator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Backend() == "privbayes" {
		return generator.PrivBayes{Epsilon: c.Epsilon, Delta: c.Delta, Bins: c.Bins}, nil
	}
	return generator.GMM{}, nil
}

// JournaledConfig adds the generator keys to a RunStart config map. The
// keys are always present and carry the resolved backend, so no flag and
// -s1-generator gmm journal one identical configuration. They are run
// parameters (they select what is computed), so the resume flag-mismatch
// guard covers them.
func (c *Generators) JournaledConfig(cfg map[string]string) {
	cfg["s1_generator"] = c.Backend()
	cfg["generator_epsilon"] = strconv.FormatFloat(c.Epsilon, 'g', -1, 64)
	cfg["generator_delta"] = strconv.FormatFloat(c.Delta, 'g', -1, 64)
	cfg["generator_bins"] = strconv.Itoa(c.Bins)
}
