package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"serd/internal/telemetry"
)

// Header identifies the run a trace belongs to. RunID is the journal's
// first chain hash (or empty when the run is unjournaled) — the stable
// key that ties a trace file back to its provenance record.
type Header struct {
	RunID   string `json:"run,omitempty"`
	Tool    string `json:"tool,omitempty"`
	Dataset string `json:"dataset,omitempty"`
	Seed    int64  `json:"seed"`
	StartNS int64  `json:"start"`
}

// Paths derives the two exporter outputs from the -trace flag value:
// the Chrome trace-event JSON at path itself, and the compact JSONL
// stream next to it (".json" swapped for ".jsonl", otherwise appended).
func Paths(path string) (chromePath, jsonlPath string) {
	base := strings.TrimSuffix(path, ".json")
	return path, base + ".jsonl"
}

// jsonlLine is the one-line-per-event on-disk form. K selects the kind:
// "h" header, "ps" phase start, "pe" phase end, "s" complete child span,
// "m" metrics batch, "f" footer. Times are Unix nanoseconds, durations
// nanoseconds.
type jsonlLine struct {
	K       string            `json:"k"`
	Run     string            `json:"run,omitempty"`
	Tool    string            `json:"tool,omitempty"`
	Dataset string            `json:"dataset,omitempty"`
	Seed    int64             `json:"seed,omitempty"`
	Start   int64             `json:"start,omitempty"`
	ID      uint64            `json:"id,omitempty"`
	Par     uint64            `json:"par,omitempty"`
	Name    string            `json:"name,omitempty"`
	T       int64             `json:"t,omitempty"`
	Dur     int64             `json:"dur,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Events  uint64            `json:"events,omitempty"`
	Dropped uint64            `json:"dropped,omitempty"`
}

func attrMap(attrs []telemetry.Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Val
	}
	return m
}

// Exporter is the bus consumer that persists a run's trace: it streams
// the compact JSONL file incrementally (crash leaves a usable prefix)
// and, at Close, writes the Chrome trace-event JSON for
// chrome://tracing / Perfetto.
type Exporter struct {
	bus    *telemetry.Bus
	hdr    Header
	chrome string
	jsonl  string

	f   *os.File
	w   *bufio.Writer
	enc *json.Encoder

	stop chan struct{}
	done chan struct{}

	// accumulated state for the Chrome export (exporter goroutine only,
	// read by Close after <-done).
	open    map[uint64]openPhase
	spans   []chromeSpan
	events  uint64
	dropped uint64
}

type openPhase struct {
	name string
	t    int64
}

type chromeSpan struct {
	name   string
	t, dur int64
	tid    int
	args   map[string]string
}

// NewExporter starts draining bus (from its beginning) into the trace
// files derived from path. Close flushes and finalizes both.
func NewExporter(bus *telemetry.Bus, path string, hdr Header) (*Exporter, error) {
	chromePath, jsonlPath := Paths(path)
	f, err := os.Create(jsonlPath)
	if err != nil {
		return nil, fmt.Errorf("trace: create %s: %w", jsonlPath, err)
	}
	e := &Exporter{
		bus:    bus,
		hdr:    hdr,
		chrome: chromePath,
		jsonl:  jsonlPath,
		f:      f,
		w:      bufio.NewWriterSize(f, 1<<16),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		open:   make(map[uint64]openPhase),
	}
	e.enc = json.NewEncoder(e.w)
	e.writeLine(jsonlLine{K: "h", Run: hdr.RunID, Tool: hdr.Tool, Dataset: hdr.Dataset, Seed: hdr.Seed, Start: hdr.StartNS})
	go e.loop()
	return e, nil
}

func (e *Exporter) writeLine(l jsonlLine) {
	e.enc.Encode(l) //nolint:errcheck // surfaced by the final Flush in Close
}

func (e *Exporter) loop() {
	defer close(e.done)
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	var cursor uint64
	for {
		select {
		case <-e.stop:
			cursor = e.drain(cursor)
			return
		case <-t.C:
			cursor = e.drain(cursor)
		}
	}
}

func (e *Exporter) drain(cursor uint64) uint64 {
	for {
		evs, next, dropped := e.bus.Poll(cursor, 512)
		cursor = next
		e.dropped += dropped
		for _, ev := range evs {
			e.consume(ev)
		}
		if len(evs) < 512 {
			return cursor
		}
	}
}

func (e *Exporter) consume(ev *telemetry.BusEvent) {
	e.events++
	switch ev.Kind {
	case "phase_start":
		e.open[ev.ID] = openPhase{name: ev.Name, t: ev.T}
		e.writeLine(jsonlLine{K: "ps", ID: ev.ID, Par: ev.Parent, Name: ev.Name, T: ev.T})
	case "phase_end":
		delete(e.open, ev.ID)
		e.writeLine(jsonlLine{K: "pe", ID: ev.ID, Name: ev.Name, T: ev.T, Dur: ev.Dur})
		e.spans = append(e.spans, chromeSpan{name: ev.Name, t: ev.T - ev.Dur, dur: ev.Dur})
	case "span":
		e.writeLine(jsonlLine{K: "s", ID: ev.ID, Par: ev.Parent, Name: ev.Name, T: ev.T, Dur: ev.Dur, Attrs: attrMap(ev.Attrs)})
		args := attrMap(ev.Attrs)
		tid := 0
		if w, ok := args["worker"]; ok {
			fmt.Sscanf(w, "%d", &tid) //nolint:errcheck // 0 track on parse failure
			tid++                     // track 0 is the main/phase track
		}
		e.spans = append(e.spans, chromeSpan{name: ev.Name, t: ev.T, dur: ev.Dur, tid: tid, args: args})
	case "metrics":
		e.writeLine(jsonlLine{K: "m", Name: ev.Name, T: ev.T, Attrs: attrMap(ev.Attrs)})
	case "shutdown":
		// terminal marker for live consumers; nothing to persist
	}
}

// Close stops the export goroutine, drains the bus one final time, writes
// the JSONL footer and the Chrome trace-event file, and reports any write
// error.
func (e *Exporter) Close() error {
	close(e.stop)
	<-e.done

	// Phases still open (e.g. a stage aborted by an error) are closed at
	// export time so the trace stays renderable.
	now := time.Now().UnixNano()
	for _, ph := range e.open {
		e.spans = append(e.spans, chromeSpan{name: ph.name, t: ph.t, dur: now - ph.t})
	}

	e.writeLine(jsonlLine{K: "f", Events: e.events, Dropped: e.dropped})
	if err := e.w.Flush(); err != nil {
		e.f.Close()
		return fmt.Errorf("trace: flush %s: %w", e.jsonl, err)
	}
	if err := e.f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", e.jsonl, err)
	}
	return e.writeChrome()
}

// writeChrome emits the Chrome trace-event JSON: one "X" complete event
// per span (timestamps µs), plus process/thread metadata so Perfetto
// labels the worker tracks.
func (e *Exporter) writeChrome() error {
	type chromeEvent struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []chromeEvent
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "serd " + e.hdr.Tool},
	})
	tids := map[int]bool{}
	for _, s := range e.spans {
		tids[s.tid] = true
	}
	for tid := range tids {
		name := "pipeline"
		if tid > 0 {
			name = fmt.Sprintf("worker %d", tid-1)
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	for _, s := range e.spans {
		var args map[string]any
		if len(s.args) > 0 {
			args = make(map[string]any, len(s.args))
			for k, v := range s.args {
				args[k] = v
			}
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X",
			TS:  float64(s.t) / 1e3, // ns → µs
			Dur: float64(s.dur) / 1e3,
			PID: 1, TID: s.tid, Args: args,
		})
	}
	out := struct {
		TraceEvents []chromeEvent     `json:"traceEvents"`
		Metadata    map[string]string `json:"metadata,omitempty"`
	}{
		TraceEvents: events,
		Metadata: map[string]string{
			"run":     e.hdr.RunID,
			"tool":    e.hdr.Tool,
			"dataset": e.hdr.Dataset,
		},
	}
	f, err := os.Create(e.chrome)
	if err != nil {
		return fmt.Errorf("trace: create %s: %w", e.chrome, err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err := json.NewEncoder(w).Encode(out); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", e.chrome, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: flush %s: %w", e.chrome, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", e.chrome, err)
	}
	return nil
}
