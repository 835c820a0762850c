package serd_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"serd"
	"serd/internal/generator"
)

var updateGolden = flag.Bool("update", false, "re-pin testdata/golden_digests.json from this build")

const goldenPath = "testdata/golden_digests.json"

// TestGoldenDigests pins output bytes across builds: each row runs the
// shared invariance baseline in one fixed configuration and compares the
// SHA-256 of A/B/matches and of the stripped journal with the digests
// committed in testdata/golden_digests.json. A change that moves a digest
// on purpose re-pins with
//
//	go test -run TestGoldenDigests -update .
//
// and says in its change notes why the bytes moved. The digests are
// pinned on amd64: architectures that fuse multiply-adds (arm64, ppc64le,
// s390x) legitimately round some floats differently.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*updateGolden {
		t.Skipf("golden digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	rows := []invarianceRow{
		{name: "gmm-unblocked-workers-1", arm: func(t *testing.T, r *invarianceRun) func([]byte) {
			r.opts.Workers = 1
			return nil
		}},
		{name: "gmm-qgram-blocker-workers-4", arm: func(t *testing.T, r *invarianceRun) func([]byte) {
			r.opts.Workers = 4
			r.opts.S3Blocker = serd.QGramBlocker{Column: 0}
			return nil
		}},
		{name: "privbayes-eps-1", arm: func(t *testing.T, r *invarianceRun) func([]byte) {
			r.opts.Generator = generator.PrivBayes{Epsilon: 1}
			r.opts.Privacy = r.ledger
			return nil
		}},
		{name: "no-reject", arm: func(t *testing.T, r *invarianceRun) func([]byte) {
			r.opts.DisableRejection = true
			return nil
		}},
	}
	got := make(map[string]map[string]string, len(rows))
	for _, row := range rows {
		dir := filepath.Join(t.TempDir(), row.name)
		journal := synthesizeRow(t, dir, row)
		digests := map[string]string{"journal": sha256Hex(stripVolatile(t, journal))}
		for name, data := range readDataset(t, dir) {
			digests[name] = sha256Hex(data)
		}
		got[row.name] = digests
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-pinned %s", goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to pin)", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d rows, the test runs %d", goldenPath, len(want), len(got))
	}
	for name, digests := range got {
		for file, sum := range digests {
			if w := want[name][file]; sum != w {
				t.Errorf("%s %s: digest %s, pinned %s: the build changed what SERD outputs", name, file, sum, w)
			}
		}
	}
}

func sha256Hex(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}
