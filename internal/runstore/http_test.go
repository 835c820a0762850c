package runstore

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHandlerListAndShow(t *testing.T) {
	s := mustOpen(t)
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	if err := s.Put(testEntry("aaaa11112222", base)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testEntry("bbbb11112222", base.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}
	h := Handler(s, nil)

	// JSON list (curl-style: no Accept header).
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/runs", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("list Content-Type = %s", ct)
	}
	var list listResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list JSON: %v", err)
	}
	if len(list.Runs) != 2 || list.Live != nil {
		t.Fatalf("list = %d runs, live=%v", len(list.Runs), list.Live)
	}

	// HTML list for browsers.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/runs/", nil)
	req.Header.Set("Accept", "text/html,application/xhtml+xml")
	h.ServeHTTP(rec, req)
	if body := rec.Body.String(); !strings.Contains(body, "<html") || !strings.Contains(body, "aaaa11112222") {
		t.Fatalf("HTML list missing run row:\n%s", body)
	}

	// Single run by prefix, JSON.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/runs/bbbb1111", nil))
	var e Entry
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("show JSON: %v", err)
	}
	if e.RunID != "bbbb11112222" {
		t.Fatalf("show resolved %s", e.RunID)
	}

	// Unknown id is a 404.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/runs/ffffffffffff", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown run status = %d", rec.Code)
	}
}

func TestHandlerLiveRun(t *testing.T) {
	s := mustOpen(t)
	live := &LiveRun{}
	live.Set(Entry{RunID: "cccc11112222", Tool: "serd", Dataset: "Restaurant", Start: time.Now()})
	h := Handler(s, live)

	// The in-flight run appears in the list with status "running"...
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/runs", nil))
	var list listResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Live == nil || list.Live.Status != "running" {
		t.Fatalf("live entry = %+v", list.Live)
	}

	// ...is addressable by id before it registers...
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/runs/cccc1111", nil))
	var e Entry
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.RunID != "cccc11112222" || e.Status != "running" {
		t.Fatalf("live show = %+v", e)
	}

	// ...and the HTML list auto-refreshes while it is in flight.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/runs", nil)
	req.Header.Set("Accept", "text/html")
	h.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), `http-equiv="refresh"`) {
		t.Fatal("live HTML list has no auto-refresh")
	}

	// Once registered, the live pseudo-entry drops out of the list.
	entry, _ := live.Snapshot()
	entry.Status = "done"
	if err := s.Put(entry); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/runs", nil))
	var after listResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Live != nil {
		t.Fatalf("registered run still listed live: %+v", after.Live)
	}

	// Nil receiver safety (registry off): all methods are no-ops.
	var nilLive *LiveRun
	nilLive.Set(Entry{})
	nilLive.SetRunID("x")
	if _, ok := nilLive.Snapshot(); ok {
		t.Fatal("nil LiveRun reported active")
	}
}
