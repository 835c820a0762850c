// Package runstore is SERD's cross-run memory: an append-friendly
// on-disk registry where every serd/experiments/datagen run registers
// itself at its finalize stage, keyed by run id — the journal's first
// chain hash, which commits to the tool, seed and journaled config, so
// the id is content-addressed and stable across re-runs of the same
// journaled prefix.
//
// Layout (default ~/.serd/runs, overridable with -run-store DIR,
// disabled with -run-store=off):
//
//	<dir>/runs/<runid>.json   one Entry per run — the source of truth
//	<dir>/index.jsonl         append-only accelerator (one line per Put)
//	<dir>/index.lock          writer lock guarding index appends
//
// Crash safety: entry files are written temp → fsync → rename (→ dir
// fsync), so a SIGKILL mid-registration leaves either the old entry or
// the new one, never a torn file. The index is only an accelerator:
// List reconciles it against the runs/ directory, so a crash between
// the entry rename and the index append loses nothing, and a run that
// re-registers (crash, then resume) simply overwrites its entry and
// appends a fresh index line (last line per id wins). The lock file is
// held only around index appends/rewrites; a lock left behind by a dead
// process is broken by liveness check or age.
//
// Like the rest of the observability stack, an armed registry is a hard
// byte-noop on the dataset and the stripped journal (the root
// TestByteInvariance pins this): registration happens strictly
// after the terminal journal event, reads only what the run already
// recorded, and never touches an RNG stream.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"serd/internal/telemetry"
)

// Off is the -run-store value that disables registration.
const Off = "off"

// LineageRef is one dataset the run consumed or produced, identified by
// the journal's combined SHA-256 over the dataset files.
type LineageRef struct {
	Role string `json:"role"` // "input" or "output"
	Dir  string `json:"dir"`
	SHA  string `json:"sha"`
}

// StageTime is the aggregated wall-clock of one pipeline stage (all
// occurrences of the phase name summed).
type StageTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	Seconds float64 `json:"seconds"`
}

// GroupSpend is the composed ε spend of one ledger group: parallel
// composition (max) within a named group of disjoint training sets,
// sequential (sum) for ungrouped charges sharing a label.
type GroupSpend struct {
	Group   string  `json:"group"`
	Charges int     `json:"charges"`
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta,omitempty"`
}

// Privacy is the run's ε accounting distilled from the ledger.
type Privacy struct {
	Epsilon float64      `json:"epsilon"`
	Delta   float64      `json:"delta,omitempty"`
	Charges int          `json:"charges"`
	Groups  []GroupSpend `json:"groups,omitempty"`
}

// Artifacts points at the run's on-disk artifacts. Paths are recorded
// as given on the command line; they may go stale (the registry never
// copies artifacts) and consumers must treat them as best-effort.
type Artifacts struct {
	OutDir      string `json:"out_dir,omitempty"`
	Journal     string `json:"journal,omitempty"`
	Trace       string `json:"trace,omitempty"`
	Report      string `json:"report,omitempty"`
	Checkpoints string `json:"checkpoints,omitempty"`
}

// Entry is one registered run.
type Entry struct {
	// RunID is the journal's first chain hash (content-addressed: it
	// commits to tool, seed and journaled config). Journal-less runs get
	// a synthetic id (see SyntheticRunID).
	RunID   string `json:"run_id"`
	Tool    string `json:"tool"`
	Dataset string `json:"dataset,omitempty"`
	Seed    int64  `json:"seed"`
	// Status is the terminal journal status: done, failed, aborted — or
	// "running" for the live (in-flight) pseudo-entry.
	Status string            `json:"status"`
	Error  string            `json:"error,omitempty"`
	Config map[string]string `json:"config,omitempty"`
	// Generator is the S1 synthesis backend ("gmm", "privbayes"), taken
	// from the journaled core.generator config event. Empty when the run
	// predates pluggable backends or never ran S1.
	Generator string `json:"generator,omitempty"`
	// Start is the run's wall-clock start; Registered when the entry was
	// written. Both volatile — excluded from nothing, the registry is
	// not part of the determinism contract.
	Start       time.Time               `json:"start"`
	Registered  time.Time               `json:"registered"`
	WallSeconds float64                 `json:"wall_seconds"`
	Lineage     []LineageRef            `json:"lineage,omitempty"`
	Summary     map[string]float64      `json:"summary,omitempty"`
	Stages      []StageTime             `json:"stages,omitempty"`
	Runtime     *telemetry.RuntimeStats `json:"runtime,omitempty"`
	Privacy     *Privacy                `json:"privacy,omitempty"`
	// Bench holds a bench run's rows (suite runs of cmd/experiments -bench).
	Bench     []Row     `json:"bench,omitempty"`
	Artifacts Artifacts `json:"artifacts,omitempty"`
}

// LineageSHA returns the combined hash of the first lineage entry with
// the given role ("" when absent).
func (e *Entry) LineageSHA(role string) string {
	for _, l := range e.Lineage {
		if l.Role == role {
			return l.SHA
		}
	}
	return ""
}

// ShortID is the display prefix of the run id.
func (e *Entry) ShortID() string {
	if len(e.RunID) > 12 {
		return e.RunID[:12]
	}
	return e.RunID
}

// Store is a run registry rooted at a directory. Safe for concurrent
// use across processes: entry writes are atomic renames and index
// appends are serialized by the lock file.
type Store struct {
	dir string
	// lockWait bounds how long Put/GC wait for the index lock;
	// lockStale is the age past which a lock from a dead or unknown
	// process is broken. Both have working defaults; tests shrink them.
	lockWait  time.Duration
	lockStale time.Duration
}

// DefaultDir is the registry location when -run-store is not given:
// ~/.serd/runs ("" when the home directory cannot be resolved, which
// callers treat as registry-off).
func DefaultDir() string {
	home, err := os.UserHomeDir()
	if err != nil || home == "" {
		return ""
	}
	return filepath.Join(home, ".serd", "runs")
}

// Resolve maps the -run-store flag value to an open store: "off"
// disables registration (nil store, nil error), "" selects DefaultDir
// (nil store when no home directory exists), anything else is a
// directory path.
func Resolve(flagValue string) (*Store, error) {
	switch flagValue {
	case Off:
		return nil, nil
	case "":
		dir := DefaultDir()
		if dir == "" {
			return nil, nil
		}
		return Open(dir)
	default:
		return Open(flagValue)
	}
}

// Open opens (creating if needed) a registry rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return &Store{dir: dir, lockWait: 5 * time.Second, lockStale: 10 * time.Second}, nil
}

// Dir returns the registry root.
func (s *Store) Dir() string { return s.dir }

func (s *Store) entryPath(id string) string {
	return filepath.Join(s.dir, "runs", id+".json")
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.jsonl") }
func (s *Store) lockPath() string  { return filepath.Join(s.dir, "index.lock") }

// indexLine is the compact per-Put index record; List uses it only to
// discover ids quickly and always loads the entry file for detail.
type indexLine struct {
	RunID      string    `json:"run_id"`
	Tool       string    `json:"tool"`
	Status     string    `json:"status"`
	Registered time.Time `json:"registered"`
}

// Put registers (or re-registers) a run. The entry file lands via
// write-temp → fsync → rename → dir fsync; the index append happens
// under the lock. A failure after the rename is not fatal to readers —
// List reconciles the index against the entry files.
func (s *Store) Put(e Entry) error {
	if e.RunID == "" {
		return errors.New("runstore: entry has no run id")
	}
	if strings.ContainsAny(e.RunID, "/\\") {
		return fmt.Errorf("runstore: run id %q contains a path separator", e.RunID)
	}
	if e.Registered.IsZero() {
		e.Registered = time.Now()
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if err := atomicWrite(s.entryPath(e.RunID), append(data, '\n')); err != nil {
		return err
	}

	line, err := json.Marshal(indexLine{RunID: e.RunID, Tool: e.Tool, Status: e.Status, Registered: e.Registered})
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	unlock, err := s.acquireLock()
	if err != nil {
		return err
	}
	defer unlock()
	f, err := os.OpenFile(s.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("runstore: index: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("runstore: index: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("runstore: index: %w", err)
	}
	return f.Close()
}

// Get loads a run by id or unique id prefix (at least 6 characters).
func (s *Store) Get(idOrPrefix string) (Entry, error) {
	var zero Entry
	if idOrPrefix == "" {
		return zero, errors.New("runstore: empty run id")
	}
	// Exact hit first: cheap and unambiguous.
	if e, err := s.load(idOrPrefix); err == nil {
		return e, nil
	}
	if len(idOrPrefix) < 6 {
		return zero, fmt.Errorf("runstore: no run %q (prefixes need at least 6 characters)", idOrPrefix)
	}
	ids, err := s.ids()
	if err != nil {
		return zero, err
	}
	var matches []string
	for _, id := range ids {
		if strings.HasPrefix(id, idOrPrefix) {
			matches = append(matches, id)
		}
	}
	switch len(matches) {
	case 0:
		return zero, fmt.Errorf("runstore: no run matching %q in %s", idOrPrefix, s.dir)
	case 1:
		return s.load(matches[0])
	default:
		return zero, fmt.Errorf("runstore: run id prefix %q is ambiguous (%d matches)", idOrPrefix, len(matches))
	}
}

func (s *Store) load(id string) (Entry, error) {
	var e Entry
	data, err := os.ReadFile(s.entryPath(id))
	if err != nil {
		return e, fmt.Errorf("runstore: %w", err)
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return e, fmt.Errorf("runstore: entry %s: %w", id, err)
	}
	return e, nil
}

// ids lists every registered run id from the runs/ directory — the
// source of truth the index accelerates but never overrides.
func (s *Store) ids() ([]string, error) {
	des, err := os.ReadDir(filepath.Join(s.dir, "runs"))
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	var ids []string
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, ".json"))
	}
	sort.Strings(ids)
	return ids, nil
}

// List loads every registered run, oldest Start first. Entries that
// fail to parse (torn by a pre-rename crash is impossible, but a
// foreign file isn't) are skipped rather than failing the listing.
func (s *Store) List() ([]Entry, error) {
	ids, err := s.ids()
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, len(ids))
	for _, id := range ids {
		e, err := s.load(id)
		if err != nil {
			continue
		}
		entries = append(entries, e)
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if !entries[i].Start.Equal(entries[j].Start) {
			return entries[i].Start.Before(entries[j].Start)
		}
		return entries[i].RunID < entries[j].RunID
	})
	return entries, nil
}

// GC deletes all but the newest keep entries (by Start) and rewrites
// the index to match. Returns how many entries were removed.
func (s *Store) GC(keep int) (int, error) {
	if keep < 0 {
		return 0, fmt.Errorf("runstore: gc keep %d < 0", keep)
	}
	entries, err := s.List()
	if err != nil {
		return 0, err
	}
	drop := len(entries) - keep
	if drop <= 0 {
		return 0, nil
	}
	unlock, err := s.acquireLock()
	if err != nil {
		return 0, err
	}
	defer unlock()
	for _, e := range entries[:drop] {
		if err := os.Remove(s.entryPath(e.RunID)); err != nil && !os.IsNotExist(err) {
			return 0, fmt.Errorf("runstore: gc: %w", err)
		}
	}
	var buf strings.Builder
	for _, e := range entries[drop:] {
		line, err := json.Marshal(indexLine{RunID: e.RunID, Tool: e.Tool, Status: e.Status, Registered: e.Registered})
		if err != nil {
			return 0, fmt.Errorf("runstore: gc: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := atomicWrite(s.indexPath(), []byte(buf.String())); err != nil {
		return 0, err
	}
	return drop, nil
}

// acquireLock takes the index lock (O_CREATE|O_EXCL with our PID as
// content). A lock whose owner is dead, or older than lockStale, is
// broken — a SIGKILLed registration must not wedge every later run.
func (s *Store) acquireLock() (func(), error) {
	path := s.lockPath()
	deadline := time.Now().Add(s.lockWait)
	for {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "%d\n", os.Getpid())
			f.Close()
			return func() { os.Remove(path) }, nil
		}
		if !os.IsExist(err) {
			return nil, fmt.Errorf("runstore: lock: %w", err)
		}
		if s.lockIsStale(path) {
			os.Remove(path) // racing removers are fine; O_EXCL re-arbitrates
			continue
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("runstore: index lock %s held past %s; remove it if no run is active", path, s.lockWait)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// lockIsStale reports whether the lock's owner is provably dead (PID
// readable and not alive) or the lock exceeds the stale age.
func (s *Store) lockIsStale(path string) bool {
	st, err := os.Stat(path)
	if err != nil {
		return false // vanished: the O_EXCL retry will sort it out
	}
	if time.Since(st.ModTime()) > s.lockStale {
		return true
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil || pid <= 0 {
		return false
	}
	return !processAlive(pid)
}

// atomicWrite lands data at path via temp file + fsync + rename + dir
// fsync — the same crash-safety discipline as the checkpoint layer.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runstore: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runstore: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// SyntheticRunID derives a registry id for runs that write no journal
// (experiments, -no-journal runs): unlike journal-backed ids it is not
// content-addressed, just unique per invocation.
func SyntheticRunID(tool string, seed int64, startNS int64) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%d|%d", tool, seed, startNS, os.Getpid())))
	return hex.EncodeToString(h[:])
}
