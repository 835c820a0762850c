// Package journal is SERD's durable run provenance layer: an append-only,
// structured JSONL event journal that every pipeline stage writes to, plus
// a privacy-budget ledger (ledger.go) and the audit machinery behind
// `serd audit` (audit.go).
//
// One journal covers one run. Each line is one Event — run config and
// seed, input/output dataset lineage hashes, S1/S2/S3 phase boundaries,
// GMM fit summaries, per-bucket DP-SGD parameters, every ε checkpoint from
// the RDP accountant, ledger charges, budget-enforcement decisions and the
// terminal status. Events are hash-chained: every line carries
// chain = SHA-256(prevChain | seq | type | data), so editing or dropping
// any line breaks verification of every later line (see VerifyChain).
//
// Two fields are deliberately outside the chain: the wall-clock timestamp
// (ts) and wall-clock durations (dur_s). They are the only nondeterministic
// parts of a journal — two same-seed runs produce byte-identical journals
// once ts/dur_s are stripped (the determinism regression test relies on
// this), and the chain stays comparable across re-runs.
//
// The typed emitters below are the primary surface; Handler (slog.go)
// adapts the same stream to a stdlib log/slog handler for free-form
// structured notes.
package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// DefaultName is the journal filename written next to an output dataset,
// the audit tooling's default lookup.
const DefaultName = "journal.jsonl"

// Event is one journal line.
type Event struct {
	// Seq is the 1-based position in the journal.
	Seq int `json:"seq"`
	// TS is the wall-clock emission time (RFC 3339). Volatile: excluded
	// from the hash chain so same-seed runs chain identically.
	TS string `json:"ts,omitempty"`
	// DurS carries a wall-clock duration in seconds where the event has
	// one (phase_end, run_end). Volatile like TS.
	DurS float64 `json:"dur_s,omitempty"`
	// Type names the event (run_start, lineage, phase_start, phase_end,
	// generator_fit, ledger_charge, budget, epsilon_checkpoint,
	// ledger_total, synthesis, log, run_end; older journals also carry
	// gmm_fit).
	Type string `json:"type"`
	// Data is the type-specific payload.
	Data json.RawMessage `json:"data,omitempty"`
	// Chain is hex(SHA-256(prevChain | seq | "|" | type | "|" | data)),
	// with an empty prevChain for the first event.
	Chain string `json:"chain"`
}

// chainHash computes an event's chain value from its predecessor's.
func chainHash(prev string, seq int, typ string, data []byte) string {
	h := sha256.New()
	io.WriteString(h, prev)
	io.WriteString(h, strconv.Itoa(seq))
	io.WriteString(h, "|")
	io.WriteString(h, typ)
	io.WriteString(h, "|")
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// durableTypes are the events fsynced to disk the moment they are written:
// phase boundaries, ε checkpoints, budget decisions, lineage and terminal
// statuses must survive a crash — they are what resume and audit reason
// about. Bulk per-step events (ledger_charge, generator_fit, log) ride along with
// the next durable event instead of paying a sync each.
var durableTypes = map[string]bool{
	"phase_start":        true,
	"phase_end":          true,
	"epsilon_checkpoint": true,
	"budget":             true,
	"lineage":            true,
	"resume":             true,
	"blocking":           true,
	"run_end":            true,
}

// Journal appends events to a stream. Safe for concurrent use.
type Journal struct {
	mu    sync.Mutex
	w     io.Writer
	c     io.Closer // nil when the writer is not ours to close
	f     *os.File  // non-nil for file-backed journals; enables fsync
	seq   int
	chain string
	first string // first event's chain hash — the run's registry id
	bytes int64  // bytes written so far — a checkpoint's truncation offset
	err   error  // first write error; subsequent emits are dropped
	now   func() time.Time
}

// New wraps an existing writer (e.g. a bytes.Buffer in tests).
func New(w io.Writer) *Journal {
	return &Journal{w: w, now: time.Now}
}

// Create opens (truncating) a journal file at path, creating parent
// directories as needed.
func Create(path string) (*Journal, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := New(f)
	j.c = f
	j.f = f
	return j, nil
}

// Resume reopens an existing journal for appending across a crash/resume
// seam. The checkpoint being resumed from recorded the journal position at
// save time as (seq, chain, offset); everything after offset was written
// after the checkpoint and is discarded:
//
//  1. the file is truncated to offset,
//  2. the surviving prefix is parsed and its hash chain verified,
//  3. the prefix must contain exactly seq events and end on chain.
//
// On success the journal appends with the restored seq/chain, so resumed
// events chain onto the prefix exactly as the uninterrupted run's would
// have, and `serd audit verify` walks the seam without noticing.
func Resume(path string, seq int, chain string, offset int64) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: resume: %w", err)
	}
	if offset < 0 || offset > int64(len(data)) {
		return nil, fmt.Errorf("journal: resume: checkpoint offset %d outside journal of %d bytes", offset, len(data))
	}
	prefix := data[:offset]
	events, err := Parse(prefix)
	if err != nil {
		return nil, fmt.Errorf("journal: resume: parsing prefix: %w", err)
	}
	if len(events) != seq {
		return nil, fmt.Errorf("journal: resume: prefix has %d events, checkpoint recorded %d", len(events), seq)
	}
	if i := VerifyChain(events); i >= 0 {
		return nil, fmt.Errorf("journal: resume: hash chain broken at event %d", i+1)
	}
	last := ""
	if len(events) > 0 {
		last = events[len(events)-1].Chain
	}
	if last != chain {
		return nil, fmt.Errorf("journal: resume: prefix chain %.12s does not match checkpoint chain %.12s", last, chain)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("journal: resume: %w", err)
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: resume: truncating to checkpoint: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: resume: %w", err)
	}
	j := New(f)
	j.c = f
	j.f = f
	j.seq = seq
	j.chain = chain
	j.bytes = offset
	if len(events) > 0 {
		j.first = events[0].Chain
	}
	return j, nil
}

// First returns the first event's chain hash — the run's identity in
// the run registry (internal/runstore). It commits to the run's opening
// event (tool, seed, journaled config for run_start journals), so a
// resumed run keeps the id of the run it replays. Empty until the first
// event is emitted.
func (j *Journal) First() string {
	if j == nil {
		return ""
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.first
}

// Seam returns the journal's current position — event count, chain head and
// byte offset — for embedding in a checkpoint. Resume uses it to discard
// events written after the checkpoint and splice the resumed run onto the
// chain.
func (j *Journal) Seam() (seq int, chain string, bytes int64) {
	if j == nil {
		return 0, "", 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq, j.chain, j.bytes
}

// Sync fsyncs a file-backed journal (no-op otherwise), making everything
// emitted so far durable — called before each checkpoint write so the
// checkpoint never references journal bytes the disk does not have.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.f == nil {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		if j.err == nil {
			j.err = fmt.Errorf("journal: sync: %w", err)
		}
		return err
	}
	return nil
}

// Close flushes and closes the underlying file (no-op for New writers) and
// returns the first write error encountered over the journal's lifetime.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.syncLocked()
		j.f = nil
	}
	if j.c != nil {
		if err := j.c.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.c = nil
	}
	return j.err
}

// Err returns the first write error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// emit marshals data and appends one event. durS <= 0 omits the field.
func (j *Journal) emit(typ string, data any, durS float64) {
	if j == nil {
		return
	}
	payload, err := json.Marshal(data)
	if err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = fmt.Errorf("journal: marshaling %s event: %w", typ, err)
		}
		j.mu.Unlock()
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.seq++
	ev := Event{
		Seq:  j.seq,
		TS:   j.now().UTC().Format(time.RFC3339Nano),
		Type: typ,
		Data: payload,
	}
	if durS > 0 {
		ev.DurS = durS
	}
	ev.Chain = chainHash(j.chain, ev.Seq, ev.Type, ev.Data)
	line, err := json.Marshal(ev)
	if err != nil {
		j.err = fmt.Errorf("journal: %w", err)
		return
	}
	n, err := j.w.Write(append(line, '\n'))
	j.bytes += int64(n)
	if err != nil {
		j.err = fmt.Errorf("journal: %w", err)
		return
	}
	j.chain = ev.Chain
	if j.seq == 1 {
		j.first = ev.Chain
	}
	if durableTypes[typ] {
		j.syncLocked()
	}
}

// ---- typed event payloads ----

// RunStartData opens a journal: producing tool, seed and the run's
// configuration as resolved from flags/options.
type RunStartData struct {
	Tool   string            `json:"tool"`
	Seed   int64             `json:"seed"`
	Config map[string]string `json:"config,omitempty"`
}

// RunStart emits the opening run_start event.
func (j *Journal) RunStart(tool string, seed int64, config map[string]string) {
	j.emit("run_start", RunStartData{Tool: tool, Seed: seed, Config: config}, 0)
}

// LineageData records the content identity of a dataset the run consumed
// (role "input") or produced (role "output").
type LineageData struct {
	Role string `json:"role"`
	Dir  string `json:"dir"`
	// Files maps filename to its SHA-256 (hex).
	Files map[string]string `json:"files"`
	// Combined is the SHA-256 over the sorted "name:hash" lines — one
	// value identifying the whole dataset.
	Combined string `json:"combined"`
}

// Lineage emits a lineage event for the dataset directory at dir; see
// HashDataset for the file set covered.
func (j *Journal) Lineage(role, dir string) error {
	files, combined, err := HashDataset(dir)
	if err != nil {
		return err
	}
	j.emit("lineage", LineageData{Role: role, Dir: dir, Files: files, Combined: combined}, 0)
	return nil
}

// PhaseData names a pipeline phase (core.s1, core.s2, core.s3,
// textsynth.train, …).
type PhaseData struct {
	Name string `json:"name"`
}

// PhaseStart marks a phase boundary opening.
func (j *Journal) PhaseStart(name string) { j.emit("phase_start", PhaseData{Name: name}, 0) }

// PhaseEnd marks a phase boundary closing; the duration rides in the
// volatile dur_s field so the chained payload stays deterministic.
func (j *Journal) PhaseEnd(name string, durS float64) {
	j.emit("phase_end", PhaseData{Name: name}, durS)
}

// GMMFitData summarizes one fitted mixture of S1 as journaled by the
// gmm_fit events of older builds; it is decoded (Summarize) so their
// journals stay auditable, and no longer written.
type GMMFitData struct {
	// Name distinguishes the fit ("s1.match", "s1.nonmatch").
	Name string `json:"name"`
	// Dim is the similarity-vector dimensionality.
	Dim int `json:"dim"`
	// Components is the AIC-selected mixture size.
	Components int `json:"components"`
	// Samples is the training-set size.
	Samples int `json:"samples"`
	// LogLikelihood is the final training log-likelihood.
	LogLikelihood float64 `json:"loglik"`
}

// GeneratorFitData summarizes one fitted distribution of an S1 backend —
// the generic successor of GMMFitData, carrying the backend identifier
// plus a backend-specific detail string instead of the GMM-only
// component count and log-likelihood.
type GeneratorFitData struct {
	// Backend is the generator's stable identifier ("gmm", "privbayes").
	Backend string `json:"backend"`
	// Name distinguishes the fit ("s1.match", "s1.nonmatch").
	Name string `json:"name"`
	// Dim is the similarity-vector dimensionality.
	Dim int `json:"dim"`
	// Samples is the training-set size.
	Samples int `json:"samples"`
	// Detail is the backend's own fit summary (e.g. "components=3
	// loglik=412.1" for gmm, "bins=8 marginals=6 sigma=2.3" for privbayes).
	Detail string `json:"detail,omitempty"`
}

// GeneratorFit emits a generator_fit event.
func (j *Journal) GeneratorFit(d GeneratorFitData) { j.emit("generator_fit", d, 0) }

// CheckpointData is one ε reading from the RDP accountant mid-training.
type CheckpointData struct {
	Source  string  `json:"source"`
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta,omitempty"`
}

// EpsilonCheckpoint emits an epsilon_checkpoint event.
func (j *Journal) EpsilonCheckpoint(source string, epsilon, delta float64) {
	j.emit("epsilon_checkpoint", CheckpointData{Source: source, Epsilon: epsilon, Delta: delta}, 0)
}

// SynthesisData is the S2/S3 outcome summary.
type SynthesisData struct {
	Entities                int     `json:"entities"`
	Matches                 int     `json:"matches"`
	SampledMatches          int     `json:"sampled_matches"`
	RejectedByDistribution  int     `json:"rejected_by_distribution"`
	RejectedByDiscriminator int     `json:"rejected_by_discriminator"`
	JSD                     float64 `json:"jsd"`
}

// Synthesis emits the synthesis summary event.
func (j *Journal) Synthesis(d SynthesisData) { j.emit("synthesis", d, 0) }

// BlockingData records the blocked-S3 tradeoff: which blocker pruned the
// pair space, how hard, and the measured recall bound on the held-out
// labeled sample (the S2-sampled match pairs, whose labels are known
// independently of S3). It is the audit trail's answer to "what may
// blocking have missed?" — a run whose labeling skipped most of the pair
// space says so durably, next to the lineage hashes of the dataset it
// produced.
type BlockingData struct {
	// Source names the stage that blocked ("core.s3", "datagen").
	Source string `json:"source"`
	// Blocker is the blocker's self-description with resolved parameters,
	// e.g. "qgram(col=0,q=3,min_shared=2,max_per=64)".
	Blocker string `json:"blocker"`
	// Candidates is the candidate-pair count.
	Candidates int `json:"candidates"`
	// PairSpace is |A|·|B| (float64: past ~3G×3G entities the product
	// exceeds int64).
	PairSpace float64 `json:"pair_space"`
	// ReductionRatio is 1 − candidates/pair_space.
	ReductionRatio float64 `json:"reduction_ratio"`
	// RecallBound is the fraction of held-out labeled matches present in
	// the candidate set.
	RecallBound float64 `json:"recall_bound"`
	// HeldOutMatches is the held-out labeled sample's size.
	HeldOutMatches int `json:"held_out_matches"`
	// RecallFloor is the configured minimum acceptable recall bound
	// (0 = unenforced). A bound below the floor additionally journals a
	// warning event.
	RecallFloor float64 `json:"recall_floor,omitempty"`
}

// Blocking emits a blocking event.
func (j *Journal) Blocking(d BlockingData) { j.emit("blocking", d, 0) }

// Terminal run statuses.
const (
	StatusDone    = "done"
	StatusFailed  = "failed"
	StatusAborted = "aborted" // stopped cleanly before completion: privacy-budget enforcement or an interrupt (SIGINT/SIGTERM) after a final checkpoint
)

// RunEndData closes a journal.
type RunEndData struct {
	Status string `json:"status"`
	// Error carries the failure/abort reason for non-done statuses.
	Error string `json:"error,omitempty"`
	// Summary holds headline scalars (jsd, entities, …) mirroring the run
	// report.
	Summary map[string]float64 `json:"summary,omitempty"`
}

// RunEnd emits the terminal run_end event; wallS is the run's wall-clock
// duration (volatile field).
func (j *Journal) RunEnd(status, errMsg string, summary map[string]float64, wallS float64) {
	j.emit("run_end", RunEndData{Status: status, Error: errMsg, Summary: summary}, wallS)
}

// WarningData is a non-fatal anomaly worth a durable trace: the run kept
// going, but an auditor should see that something degraded (e.g. a
// tentative O_syn fit failed and rejection stayed inactive longer).
type WarningData struct {
	// Source names the emitting stage, e.g. "core.s2".
	Source  string `json:"source"`
	Message string `json:"message"`
	// Fields carries structured context (counts, error text).
	Fields map[string]string `json:"fields,omitempty"`
}

// Warning emits a warning event.
func (j *Journal) Warning(source, message string, fields map[string]string) {
	j.emit("warning", WarningData{Source: source, Message: message, Fields: fields}, 0)
}

// ConfigData is a free-form keyed configuration event (e.g. core's resolved
// synthesis options).
type ConfigData struct {
	Name   string            `json:"name"`
	Values map[string]string `json:"values"`
}

// Config emits a config event.
func (j *Journal) Config(name string, values map[string]string) {
	j.emit("config", ConfigData{Name: name, Values: values}, 0)
}

// ResumeData records that a run was resumed from a checkpoint: which phase
// and (for training) column the checkpoint covered, the checkpoint file and
// its payload SHA-256, and the journal seam it spliced onto. The event is
// chained like any other, so the audit trail proves exactly where the seam
// is and what state the resumed run started from.
type ResumeData struct {
	Phase      string `json:"phase"`
	Column     string `json:"column,omitempty"`
	Checkpoint string `json:"checkpoint"`
	// CheckpointSHA is the SHA-256 of the checkpoint payload resumed from.
	CheckpointSHA string `json:"checkpoint_sha"`
	// Seq and Chain echo the seam position for human readers; the event's
	// own chain value already commits to them.
	Seq   int    `json:"seq"`
	Chain string `json:"chain"`
}

// Resumed emits a resume event.
func (j *Journal) Resumed(d ResumeData) { j.emit("resume", d, 0) }

// ---- reading ----

// Read loads and parses every event of a journal file. It does NOT verify
// the hash chain; see VerifyChain.
func Read(path string) ([]Event, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Parse decodes JSONL journal bytes.
func Parse(data []byte) ([]Event, error) {
	var events []Event
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("journal: line %d: %w", len(events)+1, err)
		}
		events = append(events, ev)
	}
	return events, nil
}

// VerifyChain recomputes the hash chain over events and returns the index
// (0-based) of the first broken link, or -1 when the chain is intact.
// A broken link means the event at that index — or an earlier deletion —
// does not match what was originally written.
func VerifyChain(events []Event) int {
	prev := ""
	for i, ev := range events {
		if ev.Seq != i+1 {
			return i
		}
		if chainHash(prev, ev.Seq, ev.Type, ev.Data) != ev.Chain {
			return i
		}
		prev = ev.Chain
	}
	return -1
}
