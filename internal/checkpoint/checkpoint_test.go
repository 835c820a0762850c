package checkpoint

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"serd/internal/journal"
)

func newTestCheckpointer(t *testing.T, dir string, j *journal.Journal) *Checkpointer {
	t.Helper()
	c, err := New(Config{Dir: dir, Every: 5, Tool: "serd", Seed: 7, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSaveReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := newTestCheckpointer(t, dir, nil)
	st := &S2State{
		A:                      []EntityState{{ID: "sa1", Values: []string{"x", "y"}}},
		RejectedByDistribution: 3,
		Draws:                  42,
	}
	if err := c.SaveS2(st); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.S2 == nil {
		t.Fatal("no s2 checkpoint read back")
	}
	got := snap.S2.S2
	if got.Draws != 42 || len(got.A) != 1 || got.A[0].ID != "sa1" || got.RejectedByDistribution != 3 {
		t.Fatalf("round trip lost state: %+v", got)
	}
	if m := snap.S2.Meta; m.Tool != "serd" || m.Seed != 7 || m.Phase != "s2" || m.Saved != 1 {
		t.Fatalf("meta = %+v", m)
	}
}

// TestCorruptionDetected pins the digest check: a single flipped payload
// byte must fail the read, not deserialize into silently wrong state.
func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	c := newTestCheckpointer(t, dir, nil)
	if err := c.SaveS2(&S2State{Draws: 9}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "s2.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	if _, err := ReadDir(dir); err == nil {
		t.Fatal("ReadDir accepted a corrupt file")
	}

	// Truncation must also fail cleanly.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

// TestSavedCounterOrdersFiles pins Latest(): the highest save counter wins
// across phases, and a new Checkpointer over an existing directory
// continues the counter rather than restarting it.
func TestSavedCounterOrdersFiles(t *testing.T) {
	dir := t.TempDir()
	c := newTestCheckpointer(t, dir, nil)
	if err := c.SaveS1(&S1State{Draws: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveTrain(&TrainState{Column: "name"}); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveS2(&S2State{Draws: 2}); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Latest(); got.Meta.Phase != "s2" || got.Meta.Saved != 3 {
		t.Fatalf("latest = %+v", got.Meta)
	}
	if snap.Trains["name"] == nil {
		t.Fatal("train checkpoint not indexed by column")
	}

	// A fresh Checkpointer (the resumed process) continues the counter.
	c2 := newTestCheckpointer(t, dir, nil)
	if err := c2.SaveS2(&S2State{Draws: 3}); err != nil {
		t.Fatal(err)
	}
	snap, err = ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Latest(); got.Meta.Saved != 4 || got.S2.Draws != 3 {
		t.Fatalf("resumed counter: latest = %+v", got.Meta)
	}
}

// TestRollingSaveReplacesAtomically pins that re-saving a phase replaces
// its file (no buildup) and leaves no temp files behind.
func TestRollingSaveReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	c := newTestCheckpointer(t, dir, nil)
	for i := 1; i <= 4; i++ {
		if err := c.SaveS2(&S2State{Draws: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d files in dir, want 1 rolling s2.ckpt", len(entries))
	}
	if strings.HasSuffix(entries[0].Name(), ".tmp") {
		t.Fatal("temp file left behind")
	}
	f, err := ReadFile(filepath.Join(dir, "s2.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if f.S2.Draws != 4 || f.Meta.Saved != 4 {
		t.Fatalf("rolling file holds %+v, want latest save", f.Meta)
	}
}

func TestClearRemovesCheckpoints(t *testing.T) {
	dir := t.TempDir()
	c := newTestCheckpointer(t, dir, nil)
	if err := c.SaveS1(&S1State{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Files) != 0 {
		t.Fatalf("%d files after Clear", len(snap.Files))
	}
	if err := c.SaveS1(&S1State{}); err != nil {
		t.Fatal(err)
	}
	snap, _ = ReadDir(dir)
	if snap.Latest().Meta.Saved != 1 {
		t.Fatalf("counter not reset by Clear: %d", snap.Latest().Meta.Saved)
	}
}

// TestJournalSeamRecorded pins that a save fsyncs the journal first and
// embeds a seam journal.Resume accepts.
func TestJournalSeamRecorded(t *testing.T) {
	dir := t.TempDir()
	jPath := filepath.Join(dir, "journal.jsonl")
	j, err := journal.Create(jPath)
	if err != nil {
		t.Fatal(err)
	}
	j.RunStart("serd", 7, nil)
	j.PhaseStart("core.s2")
	c := newTestCheckpointer(t, filepath.Join(dir, "ckpt"), j)
	if err := c.SaveS2(&S2State{Draws: 5}); err != nil {
		t.Fatal(err)
	}
	j.Warning("core.s2", "lost to the crash", nil)
	j.Close()

	snap, err := ReadDir(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	m := snap.Latest().Meta
	if m.JournalSeq != 2 || m.JournalChain == "" || m.JournalBytes == 0 {
		t.Fatalf("seam = %+v", m)
	}
	j2, err := journal.Resume(jPath, m.JournalSeq, m.JournalChain, m.JournalBytes)
	if err != nil {
		t.Fatalf("journal rejects the checkpointed seam: %v", err)
	}
	j2.Close()
}

// TestFaultHookAborts pins the fault-injection seam used by the e2e kill
// tests: a hook error surfaces from the save.
func TestFaultHookAborts(t *testing.T) {
	c := newTestCheckpointer(t, t.TempDir(), nil)
	c.FaultHook = func(m Meta) error {
		if m.Phase == "s2" {
			return context.Canceled
		}
		return nil
	}
	if err := c.SaveS1(&S1State{}); err != nil {
		t.Fatalf("hook fired on wrong phase: %v", err)
	}
	if err := c.SaveS2(&S2State{}); err == nil {
		t.Fatal("hook error swallowed")
	}
}

// TestOlderVersionRefused pins the format-version gate: a mid-S2
// checkpoint in the version-1 envelope, whose S2 state describes a
// shared-stream position this build's keyed streams cannot resume from,
// is refused with an error that says what to do, not restored.
func TestOlderVersionRefused(t *testing.T) {
	dir := t.TempDir()
	writeS2(t, filepath.Join(dir, "s2.ckpt"), 1, &S2State{Draws: 9})
	_, err := ReadDir(dir)
	if err == nil {
		t.Fatal("version-1 checkpoint accepted")
	}
	for _, want := range []string{"format version 1", "restart fresh without -resume"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}

// writeS2 writes state as an s2 checkpoint in an envelope of the given
// version, the way Checkpointer.save does.
func writeS2(t *testing.T, path string, version int, state any) {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(state); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload.Bytes())
	env := envelope{Version: version, Meta: Meta{Tool: "serd", Seed: 7, Phase: "s2", Saved: 1},
		Payload: payload.Bytes(), SHA: hex.EncodeToString(sum[:])}
	var file bytes.Buffer
	if err := gob.NewEncoder(&file).Encode(env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// legacyS2State is S2State as earlier version-2 builds wrote it: it also
// carried the sampled labels, the matched index sets and the counters a
// resume now rebuilds by replaying S2's plans.
type legacyS2State struct {
	Backend                 string
	Gen                     []byte
	A, B                    []EntityState
	Sampled                 []legacyPairLabel
	MatchedA, MatchedB      []int
	SampledMatches          int
	SampledMatchPairs       []legacyPair
	RejectedByDiscriminator int
	RejectedByDistribution  int
	Rejections              int
	Dist                    *DistSnap
	Draws                   uint64
}

type legacyPairLabel struct {
	A, B     int
	Matching bool
}

type legacyPair struct{ A, B int }

// TestLegacyS2StateDecodes pins that dropping the derivable fields needed
// no Version bump: an s2 checkpoint in the earlier version-2 shape reads
// back with every field S2State still has intact.
func TestLegacyS2StateDecodes(t *testing.T) {
	want := S2State{
		Backend:                 "gmm",
		Gen:                     []byte{1, 2, 3},
		A:                       []EntityState{{ID: "sa1", Values: []string{"x", "y"}}, {ID: "sa2", Values: []string{"z", ""}}},
		B:                       []EntityState{{ID: "sb1", Values: []string{"x", "w"}}},
		RejectedByDiscriminator: 2,
		RejectedByDistribution:  5,
		Dist: &DistSnap{
			PendingPos:   [][]float64{{0.5, 1}},
			PendingNeg:   [][]float64{{0, 0.25}, {0.75, 0}},
			NPos:         1,
			NNeg:         2,
			LastFitTotal: 3,
		},
		Draws: 42,
	}
	legacy := legacyS2State{
		Backend: want.Backend, Gen: want.Gen, A: want.A, B: want.B,
		Sampled:                 []legacyPairLabel{{A: 0, B: 0, Matching: true}, {A: 1, B: 0}},
		MatchedA:                []int{0},
		MatchedB:                []int{0},
		SampledMatches:          1,
		SampledMatchPairs:       []legacyPair{{A: 0, B: 0}},
		RejectedByDiscriminator: want.RejectedByDiscriminator,
		RejectedByDistribution:  want.RejectedByDistribution,
		Rejections:              7,
		Dist:                    want.Dist,
		Draws:                   want.Draws,
	}
	path := filepath.Join(t.TempDir(), "s2.ckpt")
	writeS2(t, path, Version, &legacy)
	f, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*f.S2, want) {
		t.Fatalf("decoded %+v, want %+v", *f.S2, want)
	}
}
