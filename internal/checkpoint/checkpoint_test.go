package checkpoint

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"os"
	"path/filepath"
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
		A:       []EntityState{{ID: "sa1", Values: []string{"x", "y"}}},
		Sampled: []PairLabelState{{A: 0, B: 0, Matching: true}},
		Draws:   42,
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
	if got.Draws != 42 || len(got.A) != 1 || got.A[0].ID != "sa1" || !got.Sampled[0].Matching {
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
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&S2State{Draws: 9}); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload.Bytes())
	env := envelope{Version: 1, Meta: Meta{Tool: "serd", Seed: 7, Phase: "s2", Saved: 1},
		Payload: payload.Bytes(), SHA: hex.EncodeToString(sum[:])}
	var file bytes.Buffer
	if err := gob.NewEncoder(&file).Encode(env); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "s2.ckpt")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
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
