package config

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func TestBlockingValidate(t *testing.T) {
	cases := []struct {
		name    string
		c       Blocking
		wantErr string
	}{
		{name: "off", c: Blocking{}},
		{name: "qgram", c: Blocking{Blocker: "qgram", Key: "name"}},
		{name: "union with floor", c: Blocking{Blocker: "union", RecallFloor: 0.9}},
		{name: "unknown blocker", c: Blocking{Blocker: "lsh"}, wantErr: "-s3-blocker"},
		{name: "key without blocker", c: Blocking{Key: "name"}, wantErr: "require -s3-blocker"},
		{name: "floor without blocker", c: Blocking{RecallFloor: 0.9}, wantErr: "require -s3-blocker"},
		{name: "floor above one", c: Blocking{Blocker: "sn", RecallFloor: 1.5}, wantErr: "[0,1]"},
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

func TestBlockingBuild(t *testing.T) {
	schema, err := ParseSchema("year:num:1990:2000,name:text,addr:text")
	if err != nil {
		t.Fatal(err)
	}

	// Off builds nothing.
	off := Blocking{}
	if bl, err := off.Build(schema); err != nil || bl != nil {
		t.Fatalf("Build with blocking off = %v, %v; want nil, nil", bl, err)
	}

	// Default key resolves to the first textual column, not column 0.
	for _, name := range []string{"qgram", "token", "sn", "union"} {
		c := Blocking{Blocker: name}
		bl, err := c.Build(schema)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		if desc := bl.Describe(); !strings.Contains(desc, "col=1") {
			t.Errorf("Build(%s).Describe() = %q, want key col=1 (first textual)", name, desc)
		}
	}

	// Explicit key by name, with the blocker's parameters in the
	// description.
	c := Blocking{Blocker: "union", Key: "addr"}
	bl, err := c.Build(schema)
	if err != nil {
		t.Fatal(err)
	}
	if desc, want := bl.Describe(), "union(qgram(col=2,q=3,min_shared=2,max_per=64),token(col=2,max_per_token=50),sn(col=2,window=5))"; desc != want {
		t.Errorf("Describe() = %q, want %q", desc, want)
	}

	// Unknown key column is a hard error naming the flag.
	bad := Blocking{Blocker: "qgram", Key: "venue"}
	if _, err := bad.Build(schema); err == nil || !strings.Contains(err.Error(), "-block-key") {
		t.Errorf("unknown key column error = %v, want it to name -block-key", err)
	}

	// No textual column and no explicit key: refuse rather than guess.
	numOnly, err := ParseSchema("year:num:1990:2000")
	if err != nil {
		t.Fatal(err)
	}
	noText := Blocking{Blocker: "token"}
	if _, err := noText.Build(numOnly); err == nil || !strings.Contains(err.Error(), "textual") {
		t.Errorf("no-textual-column error = %v", err)
	}

	// Build re-validates, so a CLI-bypassing caller still gets the check.
	invalid := Blocking{Blocker: "nope"}
	if _, err := invalid.Build(schema); err == nil {
		t.Error("invalid blocker name accepted by Build")
	}
}

// TestBlockingJournaledConfigIsByteNoopWhenOff pins the off-is-absent
// guarantee: journaled run configs from blocking-off runs must not change
// when the blocking feature exists, or resume/journal byte-compatibility
// breaks.
func TestBlockingJournaledConfigIsByteNoopWhenOff(t *testing.T) {
	c := &Serd{In: "in", Out: "out", SchemaSpec: "x:text"}
	for k := range c.JournaledConfig() {
		if strings.HasPrefix(k, "block") || strings.HasPrefix(k, "s3_") {
			t.Errorf("blocking-off journaled config contains %q", k)
		}
	}
	c.Blocking = Blocking{Blocker: "union", Key: "x", RecallFloor: 0.95}
	cfg := c.JournaledConfig()
	want := map[string]string{
		"s3_blocker":         "union",
		"block_key":          "x",
		"block_recall_floor": "0.95",
	}
	for k, v := range want {
		if cfg[k] != v {
			t.Errorf("config[%q] = %q, want %q", k, cfg[k], v)
		}
	}
	for k := range cfg {
		if _, ok := want[k]; !ok && (strings.HasPrefix(k, "block") || strings.HasPrefix(k, "s3_")) {
			t.Errorf("blocking-on journaled config contains unexpected %q", k)
		}
	}
}

// TestRemovedBlockingFlagsRejected checks that serd, datagen and
// experiments all refuse the blocker and tuning flags the blocking
// package no longer offers: the minhash blocker is a validation error,
// and the tuning flags are unknown.
func TestRemovedBlockingFlagsRejected(t *testing.T) {
	tools := map[string]struct {
		register func(*flag.FlagSet) func() error
		args     []string
	}{
		"serd": {func(fs *flag.FlagSet) func() error { return RegisterSerd(fs).Validate },
			[]string{"-in", "in", "-out", "out", "-schema", "x:text"}},
		"datagen":     {func(fs *flag.FlagSet) func() error { return RegisterDatagen(fs).Validate }, []string{"-out", "out"}},
		"experiments": {func(fs *flag.FlagSet) func() error { return RegisterExperiments(fs).Validate }, nil},
	}
	for tool, tc := range tools {
		run := func(extra ...string) (parseErr, validateErr error) {
			fs := flag.NewFlagSet(tool, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			validate := tc.register(fs)
			if err := fs.Parse(append(append([]string{}, tc.args...), extra...)); err != nil {
				return err, nil
			}
			return nil, validate()
		}
		if perr, verr := run("-s3-blocker", "union"); perr != nil || verr != nil {
			t.Fatalf("%s: -s3-blocker union refused: %v, %v", tool, perr, verr)
		}
		if perr, verr := run("-s3-blocker", "minhash"); perr != nil || verr == nil || !strings.Contains(verr.Error(), "-s3-blocker") {
			t.Errorf("%s: -s3-blocker minhash: parse %v, validate %v; want a -s3-blocker validation error", tool, perr, verr)
		}
		for _, name := range []string{"block-qgram-q", "block-min-shared", "block-window", "block-max-per"} {
			if perr, _ := run("-s3-blocker", "union", "-"+name, "4"); perr == nil || !strings.Contains(perr.Error(), name) {
				t.Errorf("%s: -%s 4 parsed (error %v); want an unknown-flag error", tool, name, perr)
			}
		}
	}
}
