package telemetry

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func get(t *testing.T, addr, path string) *http.Response {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp
}

func TestHTTPIndexAndContentTypes(t *testing.T) {
	g := NewRegistry()
	g.Add("core.s2.accepted", 1)
	srv, err := ServeWithExtra("127.0.0.1:0", g, NewBus(64), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp := get(t, srv.Addr(), "/metrics.json")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/metrics.json content-type = %q", ct)
	}

	resp = get(t, srv.Addr(), "/metrics")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content-type = %q", ct)
	}

	resp = get(t, srv.Addr(), "/")
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	idx := string(body[:n])
	for _, want := range []string{"/metrics.json", "/metrics", "/events", "/debug/pprof/"} {
		if !strings.Contains(idx, want) {
			t.Errorf("index missing %s:\n%s", want, idx)
		}
	}
}

func TestHTTPNotFound(t *testing.T) {
	srv, err := ServeWithExtra("127.0.0.1:0", NewRegistry(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, path := range []string{"/nope", "/metrics/extra", "/events"} {
		resp := get(t, srv.Addr(), path)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// Without a bus the index must not advertise /events.
	resp := get(t, srv.Addr(), "/")
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if strings.Contains(string(body[:n]), "/events") {
		t.Errorf("bus-less index advertises /events:\n%s", string(body[:n]))
	}
}

// TestSSEStreamAndGracefulShutdown subscribes a real SSE client, publishes
// through the bus, and then drains the server with Shutdown — the client
// must see its event followed by the terminal shutdown event, and Shutdown
// must return promptly despite the infinite stream.
func TestSSEStreamAndGracefulShutdown(t *testing.T) {
	bus := NewBus(64)
	srv, err := ServeWithExtra("127.0.0.1:0", NewRegistry(), bus, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp := get(t, srv.Addr(), "/events")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/events content-type = %q", ct)
	}

	type line struct {
		s   string
		err error
	}
	lines := make(chan line, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- line{s: sc.Text()}
		}
		lines <- line{err: sc.Err()}
		close(lines)
	}()
	readUntil := func(want string) []string {
		t.Helper()
		var got []string
		deadline := time.After(5 * time.Second)
		for {
			select {
			case l, ok := <-lines:
				if !ok || l.err != nil {
					t.Fatalf("stream ended before %q: %v (got %q)", want, l.err, got)
				}
				got = append(got, l.s)
				if strings.Contains(l.s, want) {
					return got
				}
			case <-deadline:
				t.Fatalf("timed out waiting for %q, got %q", want, got)
			}
		}
	}

	bus.Publish(&BusEvent{Kind: "span", Name: "core.s2.block", T: time.Now().UnixNano()})
	got := readUntil("event: span")
	readUntil(`"name":"core.s2.block"`)
	if got[0] != ": serd event stream" {
		t.Errorf("stream preamble = %q", got[0])
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	readUntil("event: shutdown")
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestSSEEventRightAfterPreamble opens several dozen streams, and each
// client publishes an event as soon as it has read the stream preamble:
// every client must receive its own event. An event published between
// the preamble and the server taking its bus cursor would be lost.
func TestSSEEventRightAfterPreamble(t *testing.T) {
	const clients = 48
	bus := NewBus(4 * clients)
	srv, err := ServeWithExtra("127.0.0.1:0", NewRegistry(), bus, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			errs <- probeSSE(ctx, srv.Addr(), bus, fmt.Sprintf("probe-%d", c))
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// probeSSE opens one stream, publishes an event named name once the
// preamble has arrived, and reads until that event comes back.
func probeSSE(ctx context.Context, addr string, bus *Bus, name string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() || sc.Text() != ": serd event stream" {
		return fmt.Errorf("%s: stream preamble = %q (%v)", name, sc.Text(), sc.Err())
	}
	bus.Publish(&BusEvent{Kind: "span", Name: name, T: time.Now().UnixNano()})
	want := `"name":"` + name + `"`
	for sc.Scan() {
		if strings.Contains(sc.Text(), want) {
			return nil
		}
	}
	return fmt.Errorf("%s: stream ended without the event published after the preamble: %v", name, sc.Err())
}

// TestHTTPConcurrentSnapshot hammers the JSON endpoint while the registry
// records, as the race detector's eyes on the Snapshot path.
func TestHTTPConcurrentSnapshot(t *testing.T) {
	g := NewRegistry()
	srv, err := ServeWithExtra("127.0.0.1:0", g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g.Add("c", 1)
			g.Set("gauge", float64(i))
			g.Observe("hist", float64(i%10))
			sp := g.StartSpan("phase")
			sp.End()
		}
	}()
	for i := 0; i < 20; i++ {
		resp := get(t, srv.Addr(), "/metrics.json")
		resp.Body.Close()
		resp = get(t, srv.Addr(), "/metrics")
		resp.Body.Close()
	}
	close(stop)
	wg.Wait()
}
