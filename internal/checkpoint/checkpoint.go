// Package checkpoint provides crash-safe snapshots of SERD pipeline state:
// the learned O_real after S1, the S2 entity pools and rejection state at
// configurable commit intervals, and the transformer bank's weights,
// DP-SGD optimizer and accountant state per epoch.
//
// Checkpoints are written atomically — payload to a temp file, fsync,
// rename, fsync the directory — so a crash at any instant leaves either the
// previous checkpoint or the new one, never a torn file. Each file carries
// the SHA-256 of its payload; a flipped bit on disk is detected at read
// time, not deserialized into a silently wrong resume.
//
// Every checkpoint also records the run journal's seam (event count, chain
// head, byte offset) at save time, captured after an fsync of the journal:
// journal.Resume truncates the journal back to exactly the state the
// checkpoint describes, so a resumed run's events splice onto the chain and
// `serd audit verify` walks the crash seam without noticing. The resume
// contract is byte-for-byte equivalence: a run killed and resumed from any
// checkpoint produces the same output dataset SHA-256 as the uninterrupted
// run (pinned by the fault-injection tests in core and cmd/serd).
//
// A Checkpointer never stops a run: a stage stops when its context is
// canceled, saves its final checkpoint and returns the context's error
// (package pipeline).
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"serd/internal/journal"
	"serd/internal/telemetry"
)

// Version is the envelope format version; readers reject anything else.
// Version 2 keys S2's randomness by entity and attempt: a version-1 S2
// state carries a shared-stream position that no longer describes where
// the run stood, so resuming one would silently diverge.
const Version = 2

// Meta identifies what a checkpoint file covers and where the journal stood
// when it was written.
type Meta struct {
	// Tool and Seed guard against resuming state into the wrong run.
	Tool string
	Seed int64
	// Phase is "s1", "s2" or "train".
	Phase string
	// Column is the textual column a train checkpoint covers.
	Column string
	// Saved is a per-run monotonic save counter; the file with the highest
	// value is the latest checkpoint regardless of phase.
	Saved uint64
	// JournalSeq, JournalChain and JournalBytes are the journal seam at
	// save time (all zero when the run journals nowhere).
	JournalSeq   int
	JournalChain string
	JournalBytes int64
}

// envelope is the on-disk gob format: versioned metadata plus the
// gob-encoded state payload and its digest.
type envelope struct {
	Version int
	Meta    Meta
	Payload []byte
	// SHA is hex(SHA-256(Payload)).
	SHA string
}

// Config configures a Checkpointer.
type Config struct {
	// Dir is the checkpoint directory (created if missing).
	Dir string
	// Every is the S2 commit interval: a checkpoint per Every accepted
	// entities. Values < 1 default to 25.
	Every int
	// Tool and Seed are stamped into every Meta.
	Tool string
	Seed int64
	// Journal, when non-nil, is fsynced and its seam recorded at each save.
	Journal *journal.Journal
}

// Checkpointer writes checkpoints for one run.
type Checkpointer struct {
	dir     string
	every   int
	tool    string
	seed    int64
	journal *journal.Journal
	saved   atomic.Uint64

	// Metrics, when set, receives "checkpoint.save" spans and counters.
	Metrics telemetry.Recorder
	// FaultHook, when set, runs after each successful save with the saved
	// Meta; a non-nil error aborts the pipeline as if the process died
	// there. Test-only: the fault-injection harness uses it to kill runs at
	// every checkpoint site.
	FaultHook func(Meta) error
}

// New returns a Checkpointer over dir, creating it if needed. The save
// counter continues above any checkpoint already in the directory, so a
// resumed run's new checkpoints order after the one it resumed from.
func New(cfg Config) (*Checkpointer, error) {
	if cfg.Dir == "" {
		return nil, errors.New("checkpoint: empty directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if cfg.Every < 1 {
		cfg.Every = 25
	}
	c := &Checkpointer{
		dir:     cfg.Dir,
		every:   cfg.Every,
		tool:    cfg.Tool,
		seed:    cfg.Seed,
		journal: cfg.Journal,
		Metrics: telemetry.Nop,
	}
	// Lenient scan: the counter only needs to be past every readable file;
	// strict validation happens in ReadDir when actually resuming.
	names, _ := filepath.Glob(filepath.Join(cfg.Dir, "*.ckpt"))
	for _, name := range names {
		if f, err := ReadFile(name); err == nil && f.Meta.Saved > c.saved.Load() {
			c.saved.Store(f.Meta.Saved)
		}
	}
	return c, nil
}

// Every returns the S2 commit interval.
func (c *Checkpointer) Every() int {
	if c == nil {
		return 0
	}
	return c.every
}

// Clear removes every checkpoint file in the directory — called by fresh
// (non-resume) runs so stale state from a previous run cannot be resumed
// into this one.
func (c *Checkpointer) Clear() error {
	if c == nil {
		return nil
	}
	names, err := filepath.Glob(filepath.Join(c.dir, "*.ckpt"))
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, name := range names {
		if err := os.Remove(name); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	c.saved.Store(0)
	return nil
}

// SaveS1 checkpoints the post-S1 state (the learned O_real).
func (c *Checkpointer) SaveS1(st *S1State) error {
	return c.save("s1.ckpt", "s1", "", st)
}

// SaveS2 checkpoints the S2 synthesis state; successive saves replace the
// same file (atomic rename), so the directory holds one rolling S2
// checkpoint.
func (c *Checkpointer) SaveS2(st *S2State) error {
	return c.save("s2.ckpt", "s2", "", st)
}

// SaveTrain checkpoints one textual column's transformer-bank training
// state (one rolling file per column).
func (c *Checkpointer) SaveTrain(st *TrainState) error {
	return c.save("train-"+safeName(st.Column)+".ckpt", "train", st.Column, st)
}

// save is the atomic write path shared by all checkpoint kinds. The journal
// is fsynced before the seam is captured, so the checkpoint never
// references journal bytes the disk does not have.
func (c *Checkpointer) save(name, phase, column string, state any) error {
	if c == nil {
		return nil
	}
	span := c.Metrics.StartSpan("checkpoint.save")
	defer span.End()
	if err := c.journal.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing journal before save: %w", err)
	}
	seq, chain, bytesOff := c.journal.Seam()
	meta := Meta{
		Tool: c.tool, Seed: c.seed,
		Phase: phase, Column: column,
		Saved:      c.saved.Add(1),
		JournalSeq: seq, JournalChain: chain, JournalBytes: bytesOff,
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(state); err != nil {
		return fmt.Errorf("checkpoint: encoding %s state: %w", phase, err)
	}
	sum := sha256.Sum256(payload.Bytes())
	env := envelope{Version: Version, Meta: meta, Payload: payload.Bytes(), SHA: hex.EncodeToString(sum[:])}
	var file bytes.Buffer
	if err := gob.NewEncoder(&file).Encode(env); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := writeAtomic(c.dir, name, file.Bytes()); err != nil {
		return err
	}
	c.Metrics.Add("checkpoint.saves", 1)
	c.Metrics.Set("checkpoint.saved", float64(meta.Saved))
	if c.FaultHook != nil {
		if err := c.FaultHook(meta); err != nil {
			return err
		}
	}
	return nil
}

// writeAtomic writes data to dir/name with the write-temp, fsync, rename,
// fsync-directory protocol: readers see the old file or the new file, never
// a partial one, even across power loss.
func writeAtomic(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// safeName maps a column name onto a filesystem-safe filename fragment.
func safeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

// File is one checkpoint read back from disk: its metadata plus exactly one
// of the phase-specific states.
type File struct {
	Path string
	Meta Meta
	// SHA is the payload digest recorded in (and verified against) the file.
	SHA   string
	S1    *S1State
	S2    *S2State
	Train *TrainState
}

// ReadFile reads and verifies one checkpoint file: envelope version,
// payload digest, and a decodable state for the recorded phase.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: decoding envelope: %w", path, err)
	}
	if env.Version != Version {
		return nil, fmt.Errorf("checkpoint: %s: format version %d, this build reads %d (written by another build; restart fresh without -resume)", path, env.Version, Version)
	}
	sum := sha256.Sum256(env.Payload)
	if got := hex.EncodeToString(sum[:]); got != env.SHA {
		return nil, fmt.Errorf("checkpoint: %s: payload digest %.12s does not match recorded %.12s (file corrupted)", path, got, env.SHA)
	}
	f := &File{Path: path, Meta: env.Meta, SHA: env.SHA}
	dec := gob.NewDecoder(bytes.NewReader(env.Payload))
	switch env.Meta.Phase {
	case "s1":
		f.S1 = new(S1State)
		err = dec.Decode(f.S1)
	case "s2":
		f.S2 = new(S2State)
		err = dec.Decode(f.S2)
	case "train":
		f.Train = new(TrainState)
		err = dec.Decode(f.Train)
	default:
		return nil, fmt.Errorf("checkpoint: %s: unknown phase %q", path, env.Meta.Phase)
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: decoding %s state: %w", path, env.Meta.Phase, err)
	}
	return f, nil
}

// Snapshot is a checkpoint directory's content, organized for resume.
type Snapshot struct {
	Dir   string
	Files []*File
	// S1 and S2 are the pipeline checkpoints (nil when absent).
	S1 *File
	S2 *File
	// Trains maps column name to that column's training checkpoint.
	Trains map[string]*File
}

// ReadDir reads and verifies every checkpoint in dir. Any unreadable or
// corrupt file is an error: resuming from partial state silently diverges,
// so the caller must decide (typically by deleting the directory and
// rerunning from scratch).
func ReadDir(dir string) (*Snapshot, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	s := &Snapshot{Dir: dir, Trains: map[string]*File{}}
	for _, name := range names {
		f, err := ReadFile(name)
		if err != nil {
			return nil, err
		}
		s.Files = append(s.Files, f)
		switch f.Meta.Phase {
		case "s1":
			s.S1 = f
		case "s2":
			s.S2 = f
		case "train":
			s.Trains[f.Meta.Column] = f
		}
	}
	return s, nil
}

// Latest returns the file with the highest save counter — the most recent
// state, hence the journal seam to resume the journal at — or nil for an
// empty snapshot.
func (s *Snapshot) Latest() *File {
	var latest *File
	for _, f := range s.Files {
		if latest == nil || f.Meta.Saved > latest.Meta.Saved {
			latest = f
		}
	}
	return latest
}
