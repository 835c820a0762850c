package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Span is one node of a loaded trace tree. Phases (pipeline stages,
// training phases) carry children; leaf spans (chunks, iterations,
// minibatches, steps) do not.
type Span struct {
	ID     uint64
	Parent uint64
	Name   string
	// StartNS/EndNS are Unix nanoseconds; a phase whose end event never
	// arrived (crashed or truncated trace) ends at the trace's last
	// observed timestamp.
	StartNS, EndNS int64
	Attrs          map[string]string
	Children       []*Span
	// Leaf marks a complete child span ("s" line) vs a phase ("ps"/"pe").
	Leaf bool
}

// Seconds is the span's duration.
func (s *Span) Seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// Trace is a fully loaded trace file.
type Trace struct {
	Header Header
	// Roots are top-level spans (no parent), in start order.
	Roots []*Span
	// ByID indexes every span.
	ByID map[uint64]*Span
	// Events and Dropped come from the footer (0 if the footer is
	// missing, i.e. the run crashed mid-trace).
	Events, Dropped uint64
	// Truncated reports that the file's final record was cut mid-write
	// (a crash or kill -9 during a flush) and was skipped. The rest of
	// the trace loaded normally; callers should surface a warning.
	Truncated bool
}

// Load reads a compact JSONL trace file and reconstructs the span tree.
// Given the -trace flag's .json path (the Chrome-format export), it
// transparently reads the sibling .jsonl instead, so `serd trace summary
// out.json` just works.
//
// A file whose final record was cut mid-write (crash during a flush)
// loads anyway: the truncated tail record is skipped and the trace's
// Truncated flag is set. A decode failure anywhere else is still an
// error — that is corruption, not truncation.
func Load(path string) (*Trace, error) {
	if strings.HasSuffix(path, ".json") {
		if _, jsonl := Paths(path); fileExists(jsonl) {
			path = jsonl
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	// Collect the non-empty lines up front so a decode failure can be
	// classified: last line → truncated tail, earlier → corruption.
	type rawLine struct {
		no   int
		text string
	}
	var lines []rawLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if lineNo == 1 && strings.Contains(line, `"traceEvents"`) {
			return nil, fmt.Errorf("trace: %s is the Chrome-format export; pass the .jsonl trace file", path)
		}
		lines = append(lines, rawLine{no: lineNo, text: line})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read %s: %w", path, err)
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("trace: %s is empty — the run exited before writing any trace events", path)
	}

	tr := &Trace{ByID: map[uint64]*Span{}}
	var maxT int64
	for i, raw := range lines {
		var l jsonlLine
		if err := json.Unmarshal([]byte(raw.text), &l); err != nil {
			if i == len(lines)-1 {
				// The writer died mid-record; everything before it is intact.
				tr.Truncated = true
				break
			}
			return nil, fmt.Errorf("trace: %s line %d: %w", path, raw.no, err)
		}
		if l.T > maxT {
			maxT = l.T
		}
		switch l.K {
		case "h":
			tr.Header = Header{RunID: l.Run, Tool: l.Tool, Dataset: l.Dataset, Seed: l.Seed, StartNS: l.Start}
		case "ps":
			tr.ByID[l.ID] = &Span{ID: l.ID, Parent: l.Par, Name: l.Name, StartNS: l.T, EndNS: -1}
		case "pe":
			if s := tr.ByID[l.ID]; s != nil {
				s.EndNS = l.T
				if l.Dur > 0 {
					s.StartNS = l.T - l.Dur
				}
			}
		case "s":
			tr.ByID[l.ID] = &Span{ID: l.ID, Parent: l.Par, Name: l.Name, StartNS: l.T, EndNS: l.T + l.Dur, Attrs: l.Attrs, Leaf: true}
		case "m":
			// metric deltas are not part of the span tree
		case "f":
			tr.Events, tr.Dropped = l.Events, l.Dropped
		}
	}
	if len(tr.ByID) == 0 {
		return nil, fmt.Errorf("trace: %s contains no spans — the run may have been interrupted before any stage started", path)
	}

	ids := make([]uint64, 0, len(tr.ByID))
	for id := range tr.ByID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := tr.ByID[id]
		if s.EndNS < 0 {
			s.EndNS = maxT // phase never ended: truncate at last event
		}
		if p := tr.ByID[s.Parent]; s.Parent != 0 && p != nil {
			p.Children = append(p.Children, s)
		} else {
			tr.Roots = append(tr.Roots, s)
		}
	}
	sort.Slice(tr.Roots, func(i, j int) bool { return tr.Roots[i].StartNS < tr.Roots[j].StartNS })
	for _, s := range tr.ByID {
		sort.Slice(s.Children, func(i, j int) bool { return s.Children[i].StartNS < s.Children[j].StartNS })
	}
	return tr, nil
}

// WallSeconds is the span-tree time range: first phase start to last
// phase end (metric samples do not extend it).
func (t *Trace) WallSeconds() float64 {
	if len(t.ByID) == 0 {
		return 0
	}
	var lo, hi int64
	first := true
	for _, s := range t.ByID {
		if first || s.StartNS < lo {
			lo = s.StartNS
		}
		if first || s.EndNS > hi {
			hi = s.EndNS
		}
		first = false
	}
	return float64(hi-lo) / 1e9
}

// ChildSummary aggregates one child-span name within a stage.
type ChildSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	Seconds float64 `json:"seconds"`
}

// StageSummary aggregates all occurrences of one top-level stage name.
type StageSummary struct {
	Name     string         `json:"name"`
	Count    int            `json:"count"`
	Seconds  float64        `json:"seconds"`
	Fraction float64        `json:"fraction"`
	Children []ChildSummary `json:"children,omitempty"`
}

// WorkerSummary aggregates busy time for one worker track across all
// leaf spans carrying that "worker" attribute.
type WorkerSummary struct {
	Worker  string  `json:"worker"`
	Spans   int     `json:"spans"`
	Seconds float64 `json:"seconds"`
}

// Summary is the per-stage / per-worker breakdown behind `serd trace
// summary`.
type Summary struct {
	Header      Header          `json:"header"`
	WallSeconds float64         `json:"wall_seconds"`
	Coverage    float64         `json:"coverage"`
	Stages      []StageSummary  `json:"stages"`
	Workers     []WorkerSummary `json:"workers,omitempty"`
	Events      uint64          `json:"events"`
	Dropped     uint64          `json:"dropped"`
}

// Summarize computes the per-stage and per-worker time breakdown.
// Coverage is the fraction of wall-clock inside top-level stages —
// the number the root determinism test holds at ≥95%.
func Summarize(t *Trace) Summary {
	sum := Summary{Header: t.Header, WallSeconds: t.WallSeconds(), Events: t.Events, Dropped: t.Dropped}

	order := []string{}
	stages := map[string]*StageSummary{}
	childAgg := map[string]map[string]*ChildSummary{}
	childOrder := map[string][]string{}
	var covered float64
	for _, r := range t.Roots {
		st := stages[r.Name]
		if st == nil {
			st = &StageSummary{Name: r.Name}
			stages[r.Name] = st
			childAgg[r.Name] = map[string]*ChildSummary{}
			order = append(order, r.Name)
		}
		st.Count++
		st.Seconds += r.Seconds()
		covered += r.Seconds()
		collectChildren(r, childAgg[r.Name], childOrder, r.Name)
	}
	for _, name := range order {
		st := stages[name]
		if sum.WallSeconds > 0 {
			st.Fraction = st.Seconds / sum.WallSeconds
		}
		for _, cn := range childOrder[name] {
			st.Children = append(st.Children, *childAgg[name][cn])
		}
		sum.Stages = append(sum.Stages, *st)
	}
	if sum.WallSeconds > 0 {
		sum.Coverage = covered / sum.WallSeconds
	}

	workers := map[string]*WorkerSummary{}
	for _, s := range t.ByID {
		w, ok := s.Attrs["worker"]
		if !ok {
			continue
		}
		ws := workers[w]
		if ws == nil {
			ws = &WorkerSummary{Worker: w}
			workers[w] = ws
		}
		ws.Spans++
		ws.Seconds += s.Seconds()
	}
	for _, k := range sortedStrings(workers) {
		sum.Workers = append(sum.Workers, *workers[k])
	}
	return sum
}

// collectChildren aggregates the subtree under root (excluding root) by
// span name.
func collectChildren(root *Span, agg map[string]*ChildSummary, order map[string][]string, key string) {
	for _, c := range root.Children {
		cs := agg[c.Name]
		if cs == nil {
			cs = &ChildSummary{Name: c.Name}
			agg[c.Name] = cs
			order[key] = append(order[key], c.Name)
		}
		cs.Count++
		cs.Seconds += c.Seconds()
		collectChildren(c, agg, order, key)
	}
}

// PathStep is one link of the critical path: a top-level stage plus the
// track that dominated it.
type PathStep struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// Detail names the dominant child track inside the stage (busiest
	// worker, or the heaviest child-span name when untracked); empty for
	// leaf stages.
	Detail        string  `json:"detail,omitempty"`
	DetailSeconds float64 `json:"detail_seconds,omitempty"`
}

// CriticalPath is the longest dependent chain through the stage graph.
// Stages execute sequentially, so the chain is every top-level span in
// start order; within each, the busiest track is the binding constraint.
type CriticalPath struct {
	Steps        []PathStep `json:"steps"`
	TotalSeconds float64    `json:"total_seconds"`
	WallSeconds  float64    `json:"wall_seconds"`
	Coverage     float64    `json:"coverage"`
}

// FindCriticalPath computes the critical path of a loaded trace.
func FindCriticalPath(t *Trace) CriticalPath {
	cp := CriticalPath{WallSeconds: t.WallSeconds()}
	for _, r := range t.Roots {
		step := PathStep{Name: r.Name, Seconds: r.Seconds()}
		step.Detail, step.DetailSeconds = dominantTrack(r)
		cp.Steps = append(cp.Steps, step)
		cp.TotalSeconds += step.Seconds
	}
	if cp.WallSeconds > 0 {
		cp.Coverage = cp.TotalSeconds / cp.WallSeconds
	}
	return cp
}

// dominantTrack finds the heaviest track under a stage: leaf spans are
// grouped by worker attribute when present (parallel tracks run
// concurrently, so the busiest one bounds the stage), by name otherwise.
func dominantTrack(root *Span) (string, float64) {
	busy := map[string]float64{}
	count := map[string]int{}
	var walk func(*Span)
	walk = func(s *Span) {
		for _, c := range s.Children {
			key := c.Name
			if w, ok := c.Attrs["worker"]; ok {
				key = c.Name + " worker " + w
			}
			busy[key] += c.Seconds()
			count[key]++
			walk(c)
		}
	}
	walk(root)
	best, bestS := "", 0.0
	for _, k := range sortedStrings(busy) { // deterministic tie-break
		if busy[k] > bestS {
			best, bestS = k, busy[k]
		}
	}
	if best == "" {
		return "", 0
	}
	return fmt.Sprintf("%s ×%d", best, count[best]), bestS
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && !st.IsDir()
}

func sortedStrings[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
