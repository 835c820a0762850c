package runstore

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"strings"
	"sync"
	"time"
)

// LiveRun publishes the in-flight run so the /runs endpoints can list
// it with status "running" before it registers. The owning process
// updates it at run start and on status changes; readers get a copy.
type LiveRun struct {
	mu     sync.Mutex
	entry  Entry
	active bool
}

// Set replaces the live entry (status defaults to "running") and marks
// it active. Nil-safe.
func (l *LiveRun) Set(e Entry) {
	if l == nil {
		return
	}
	if e.Status == "" {
		e.Status = "running"
	}
	l.mu.Lock()
	l.entry, l.active = e, true
	l.mu.Unlock()
}

// SetRunID updates just the live entry's run id — it becomes known only
// once the journal's first event lands. Nil-safe.
func (l *LiveRun) SetRunID(id string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.entry.RunID = id
	l.mu.Unlock()
}

// Snapshot returns the live entry and whether one is active. Nil-safe.
func (l *LiveRun) Snapshot() (Entry, bool) {
	if l == nil {
		return Entry{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entry, l.active
}

// listResponse is the /runs JSON document.
type listResponse struct {
	Store string  `json:"store"`
	Runs  []Entry `json:"runs"`
	// Live is the in-flight run, when the serving process has one and it
	// has not registered yet.
	Live *Entry `json:"live,omitempty"`
}

// Handler serves the run registry over HTTP:
//
//	/runs        the run list (JSON; an HTML dashboard for browsers)
//	/runs/{id}   one run in full (id prefixes accepted)
//
// Content negotiation is by Accept header: "text/html" gets the
// dashboard, everything else JSON — `curl` and CI scripts see JSON
// without asking. live may be nil (standalone `serd runs serve`); when
// set, the in-flight run appears in the list with status "running" and
// the HTML view auto-refreshes, riding the same process whose /events
// SSE stream carries the run's span events.
func Handler(s *Store, live *LiveRun) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/runs")
		rest = strings.Trim(rest, "/")
		wantHTML := strings.Contains(r.Header.Get("Accept"), "text/html")
		if rest == "" {
			serveList(w, s, live, wantHTML)
			return
		}
		e, err := s.Get(rest)
		if err != nil {
			// The live run is addressable before it registers.
			if le, ok := live.Snapshot(); ok && strings.HasPrefix(le.RunID, rest) {
				serveRun(w, le, wantHTML)
				return
			}
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		serveRun(w, e, wantHTML)
	})
}

func serveList(w http.ResponseWriter, s *Store, live *LiveRun, wantHTML bool) {
	entries, err := s.List()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp := listResponse{Store: s.Dir(), Runs: entries}
	if le, ok := live.Snapshot(); ok {
		registered := false
		for _, e := range entries {
			if e.RunID == le.RunID {
				registered = true
				break
			}
		}
		if !registered {
			resp.Live = &le
		}
	}
	if !wantHTML {
		writeJSON(w, resp)
		return
	}
	rows := entries
	if resp.Live != nil {
		rows = append(append([]Entry{}, entries...), *resp.Live)
	}
	renderHTML(w, listPage, map[string]any{
		"Store": s.Dir(), "Runs": rows, "Live": resp.Live != nil,
	})
}

func serveRun(w http.ResponseWriter, e Entry, wantHTML bool) {
	if !wantHTML {
		writeJSON(w, e)
		return
	}
	renderHTML(w, runPage, map[string]any{"E": e, "Live": e.Status == "running"})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is not actionable
}

func renderHTML(w http.ResponseWriter, t *template.Template, data any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := t.Execute(w, data); err != nil {
		fmt.Fprintf(w, "<!-- render: %v -->", err)
	}
}

var pageFuncs = template.FuncMap{
	"short": func(id string) string {
		if len(id) > 12 {
			return id[:12]
		}
		return id
	},
	"ago": func(t time.Time) string {
		if t.IsZero() {
			return "-"
		}
		return t.Format("2006-01-02 15:04:05")
	},
	"secs": func(s float64) string { return fmt.Sprintf("%.2fs", s) },
	"eps": func(p *Privacy) string {
		if p == nil {
			return "-"
		}
		return fmt.Sprintf("%.4g", p.Epsilon)
	},
}

var listPage = template.Must(template.New("list").Funcs(pageFuncs).Parse(`<!doctype html>
<html><head><title>serd runs</title>
{{if .Live}}<meta http-equiv="refresh" content="2">{{end}}
<style>
body{font:14px/1.5 ui-monospace,monospace;margin:2em;color:#222}
table{border-collapse:collapse}td,th{padding:.25em .8em;border-bottom:1px solid #ddd;text-align:left}
tr.running{background:#fff7df}.status-done{color:#087}.status-failed{color:#b00}.status-aborted{color:#970}
a{color:#05a;text-decoration:none}
</style></head><body>
<h1>serd runs</h1>
<p>store: {{.Store}}{{if .Live}} — <b>live run in flight</b> (auto-refreshing; span stream on <a href="/events">/events</a>){{end}}</p>
<table><tr><th>run</th><th>tool</th><th>dataset</th><th>seed</th><th>status</th><th>start</th><th>wall</th><th>&epsilon;</th></tr>
{{range .Runs}}<tr{{if eq .Status "running"}} class="running"{{end}}>
<td><a href="/runs/{{.RunID}}">{{short .RunID}}</a></td>
<td>{{.Tool}}</td><td>{{.Dataset}}</td><td>{{.Seed}}</td>
<td class="status-{{.Status}}">{{.Status}}</td>
<td>{{ago .Start}}</td><td>{{secs .WallSeconds}}</td><td>{{eps .Privacy}}</td>
</tr>{{end}}
</table></body></html>
`))

var runPage = template.Must(template.New("run").Funcs(pageFuncs).Parse(`<!doctype html>
<html><head><title>serd run {{short .E.RunID}}</title>
{{if .Live}}<meta http-equiv="refresh" content="2">{{end}}
<style>
body{font:14px/1.5 ui-monospace,monospace;margin:2em;color:#222}
table{border-collapse:collapse}td,th{padding:.25em .8em;border-bottom:1px solid #ddd;text-align:left}
dt{font-weight:bold}a{color:#05a;text-decoration:none}
</style></head><body>
<p><a href="/runs">&larr; runs</a></p>
<h1>{{.E.Tool}} run {{short .E.RunID}}</h1>
<dl>
<dt>status</dt><dd>{{.E.Status}}{{with .E.Error}} — {{.}}{{end}}</dd>
<dt>dataset / seed</dt><dd>{{.E.Dataset}} / {{.E.Seed}}</dd>
<dt>start / wall</dt><dd>{{ago .E.Start}} / {{secs .E.WallSeconds}}</dd>
{{with .E.Privacy}}<dt>privacy</dt><dd>&epsilon;={{printf "%.6g" .Epsilon}} over {{.Charges}} charge(s)</dd>{{end}}
</dl>
{{with .E.Stages}}<h2>stages</h2><table><tr><th>stage</th><th>count</th><th>seconds</th></tr>
{{range .}}<tr><td>{{.Name}}</td><td>{{.Count}}</td><td>{{printf "%.3f" .Seconds}}</td></tr>{{end}}</table>{{end}}
{{with .E.Lineage}}<h2>lineage</h2><table><tr><th>role</th><th>dir</th><th>sha</th></tr>
{{range .}}<tr><td>{{.Role}}</td><td>{{.Dir}}</td><td>{{short .SHA}}</td></tr>{{end}}</table>{{end}}
{{with .E.Summary}}<h2>summary</h2><table>
{{range $k, $v := .}}<tr><td>{{$k}}</td><td>{{printf "%g" $v}}</td></tr>{{end}}</table>{{end}}
<h2>artifacts</h2><dl>
{{with .E.Artifacts.OutDir}}<dt>out</dt><dd>{{.}}</dd>{{end}}
{{with .E.Artifacts.Journal}}<dt>journal</dt><dd>{{.}}</dd>{{end}}
{{with .E.Artifacts.Trace}}<dt>trace</dt><dd>{{.}}</dd>{{end}}
{{with .E.Artifacts.Report}}<dt>report</dt><dd>{{.}}</dd>{{end}}
{{with .E.Artifacts.Checkpoints}}<dt>checkpoints</dt><dd>{{.}}</dd>{{end}}
</dl></body></html>
`))
