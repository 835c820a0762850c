package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryAggregates(t *testing.T) {
	g := NewRegistry()
	g.Add("a.count", 2)
	g.Add("a.count", 3)
	g.Set("a.gauge", 1.5)
	g.Set("a.gauge", 2.5)
	g.Observe("a.hist", 0.5)
	g.Observe("a.hist", 3)
	g.Observe("a.hist", -1)
	sp := g.StartSpan("a.phase")
	time.Sleep(time.Millisecond)
	sp.End()

	s := g.Snapshot()
	if s.Counters["a.count"] != 5 {
		t.Errorf("counter = %v, want 5", s.Counters["a.count"])
	}
	if s.Gauges["a.gauge"] != 2.5 {
		t.Errorf("gauge = %v, want 2.5", s.Gauges["a.gauge"])
	}
	h := s.Histograms["a.hist"]
	if h.Count != 3 || h.Sum != 2.5 || h.Min != -1 || h.Max != 3 {
		t.Errorf("hist = %+v", h)
	}
	// -1 underflows (le=0), 0.5 lands in le=0.5 (2^-1), 3 in le=4 (2^2).
	var total uint64
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total != 3 {
		t.Errorf("bucket counts sum to %d, want 3", total)
	}
	if h.Buckets[0].UpperBound != 0 || h.Buckets[0].Count != 1 {
		t.Errorf("underflow bucket = %+v", h.Buckets[0])
	}
	p := s.Phases["a.phase"]
	if p.Count != 1 || p.TotalSeconds <= 0 || p.LastSeconds != p.TotalSeconds {
		t.Errorf("phase = %+v", p)
	}
	if v := g.Counter("a.count"); v != 5 {
		t.Errorf("Counter = %v", v)
	}
	if v, ok := g.Gauge("a.gauge"); !ok || v != 2.5 {
		t.Errorf("Gauge = %v, %v", v, ok)
	}
}

// TestNopAllocationFree pins the acceptance criterion: the no-op recorder
// must not allocate on the S2 hot loop.
func TestNopAllocationFree(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		Nop.Add("core.s2.attempts", 1)
		Nop.Set("core.s2.jsd", 0.1)
		Nop.Observe("core.s2.attempts_per_entity", 3)
		Nop.StartSpan("core.s2").End()
	})
	if allocs != 0 {
		t.Fatalf("no-op recorder allocates %.1f per op, want 0", allocs)
	}
}

func TestOrNopAndEnabled(t *testing.T) {
	if OrNop(nil) != Nop {
		t.Error("OrNop(nil) != Nop")
	}
	g := NewRegistry()
	if OrNop(g) != Recorder(g) {
		t.Error("OrNop(reg) changed the recorder")
	}
	if Enabled(nil) || Enabled(Nop) {
		t.Error("nil/Nop report enabled")
	}
	if !Enabled(g) {
		t.Error("registry reports disabled")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	g := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				g.Add("c", 1)
				g.Set("g", float64(j))
				g.Observe("h", float64(j))
				g.StartSpan("s").End()
				_ = g.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := g.Counter("c"); got != 4000 {
		t.Errorf("counter = %v, want 4000", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	g := NewRegistry()
	g.Add("core.s2.rejected.distribution", 4)
	g.Set("core.s2.jsd", 0.25)
	g.Observe("gmm.em.iterations_per_fit", 12)
	g.StartSpan("core.s1").End()

	var b strings.Builder
	if err := WritePrometheus(&b, g.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"serd_core_s2_rejected_distribution_total 4",
		"serd_core_s2_jsd 0.25",
		"serd_gmm_em_iterations_per_fit_bucket{le=\"+Inf\"} 1",
		"serd_gmm_em_iterations_per_fit_sum 12",
		"serd_core_s1_seconds_count 1",
		"serd_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestServeEndpoints(t *testing.T) {
	g := NewRegistry()
	g.Add("core.s2.accepted", 42)
	srv, err := ServeWithExtra("127.0.0.1:0", g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("bad /metrics.json: %v", err)
	}
	if snap.Counters["core.s2.accepted"] != 42 {
		t.Errorf("snapshot counter = %v", snap.Counters["core.s2.accepted"])
	}
	if out := get("/metrics"); !strings.Contains(out, "serd_core_s2_accepted_total 42") {
		t.Errorf("prometheus exposition missing counter:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("pprof cmdline empty")
	}
	if out := get("/"); !strings.Contains(out, "/metrics.json") {
		t.Errorf("index missing endpoint list:\n%s", out)
	}
}

func TestRunReportRoundTrip(t *testing.T) {
	g := NewRegistry()
	g.Add("core.s2.accepted", 10)
	path := filepath.Join(t.TempDir(), "sub", "run_report.json")
	rep := &RunReport{
		Tool:        "serd",
		Dataset:     "Restaurant",
		Seed:        7,
		Start:       time.Now(),
		WallSeconds: 1.25,
		Summary:     map[string]float64{"jsd": 0.1},
		Metrics:     g.Snapshot(),
	}
	if err := WriteRunReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRunReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "serd" || got.Seed != 7 || got.Summary["jsd"] != 0.1 {
		t.Errorf("round trip = %+v", got)
	}
	if got.Metrics.Counters["core.s2.accepted"] != 10 {
		t.Errorf("metrics lost: %+v", got.Metrics.Counters)
	}
}
