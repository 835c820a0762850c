package config

import (
	"errors"
	"fmt"
	"strconv"

	"serd/internal/blocking"
	"serd/internal/dataset"
)

// blockingSpecs is the shared blocked-S3 flag family, appended to the
// canonical table at init. All three binaries bind it: serd restricts S3
// labeling to the blocker's candidates, datagen evaluates the blocker
// against the generated ground truth, and experiments uses it for the
// blocked rows of the scale bench. The blockers' parameters are fixed by
// the blocking package; a flag chooses only the blocker and its key.
var blockingSpecs = []Spec{
	{Name: "s3-blocker", Def: "", Usage: "restrict S3 labeling to blocker candidates: qgram|token|sn|union (empty = score every pair, the paper's exact quadratic S3)"},
	{Name: "block-key", Def: "", Usage: "blocking key column name (default: the schema's first textual column)"},
	{Name: "block-recall-floor", Def: float64(0), Usage: "journal a warning when the blocked S3's measured recall bound on the held-out sampled matches falls below this (0 = no check)"},
}

func init() { sharedSpecs = append(sharedSpecs, blockingSpecs...) }

// Blocking holds the parsed blocked-S3 flag family shared by the three
// tools.
type Blocking struct {
	Blocker     string
	Key         string
	RecallFloor float64
}

// register binds the blocking flag family into fs.
func (c *Blocking) register(b binder) {
	b.str(&c.Blocker, "s3-blocker")
	b.str(&c.Key, "block-key")
	b.float(&c.RecallFloor, "block-recall-floor")
}

// Enabled reports whether a blocker was requested.
func (c *Blocking) Enabled() bool { return c.Blocker != "" }

// Validate checks the blocking flags in isolation (no schema needed).
// Strictness over silence: -block-* flags without -s3-blocker are a
// mistake, not a no-op.
func (c *Blocking) Validate() error {
	switch c.Blocker {
	case "", "qgram", "token", "sn", "union":
	default:
		return fmt.Errorf("-s3-blocker %q: want qgram, token, sn or union", c.Blocker)
	}
	if !c.Enabled() {
		if c.Key != "" || c.RecallFloor != 0 {
			return errors.New("-block-* flags require -s3-blocker")
		}
		return nil
	}
	if c.RecallFloor < 0 || c.RecallFloor > 1 {
		return fmt.Errorf("-block-recall-floor %g outside [0,1]", c.RecallFloor)
	}
	return nil
}

// Build constructs the configured blocker against a schema, resolving
// -block-key by column name (the first textual column when empty). A nil
// blocker with nil error means blocking is off.
func (c *Blocking) Build(schema *dataset.Schema) (blocking.Blocker, error) {
	if err := c.Validate(); err != nil || !c.Enabled() {
		return nil, err
	}
	col := schema.FirstTextual()
	if c.Key != "" {
		if col = schema.ColumnIndex(c.Key); col < 0 {
			return nil, fmt.Errorf("-block-key %q is not a schema column", c.Key)
		}
	} else if col < 0 {
		return nil, errors.New("-s3-blocker needs -block-key: schema has no textual column")
	}
	qgram := blocking.QGram{Column: col}
	token := blocking.Token{Column: col}
	sn := blocking.SortedNeighborhood{Column: col}
	switch c.Blocker {
	case "qgram":
		return qgram, nil
	case "token":
		return token, nil
	case "sn":
		return sn, nil
	}
	// The standard recall-recovery composition: matches a single key
	// representation misses are usually caught by another.
	return blocking.Union{qgram, token, sn}, nil
}

// JournaledConfig adds the blocking keys to a RunStart config map. Off is
// a byte-noop: a run without -s3-blocker journals nothing blocking-related,
// so its journal is bit-identical to one from a build without the feature.
func (c *Blocking) JournaledConfig(cfg map[string]string) {
	if !c.Enabled() {
		return
	}
	cfg["s3_blocker"] = c.Blocker
	cfg["block_key"] = c.Key
	cfg["block_recall_floor"] = strconv.FormatFloat(c.RecallFloor, 'g', -1, 64)
}
