package telemetry

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// ssePollInterval is how often an idle SSE stream checks the bus for new
// events. Low enough to feel live, high enough to cost nothing.
const ssePollInterval = 50 * time.Millisecond

// sseKeepalive is how often an idle stream emits a comment line so
// proxies and clients know the connection is alive.
const sseKeepalive = 15 * time.Second

// serveSSE streams bus events to one client in Server-Sent Events format:
//
//	event: <kind>
//	data: {json BusEvent}
//
// The stream starts at the bus head (future events only), ends when the
// client disconnects or the server begins shutdown — in the latter case
// the client receives a terminal "shutdown" event first. If the client
// falls behind the bounded bus, a "dropped" comment reports how many
// events were lost.
func serveSSE(w http.ResponseWriter, r *http.Request, bus *Bus, closing <-chan struct{}) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// The cursor is taken before the response starts: a client may
	// publish as soon as it sees the stream open, and that event must
	// not fall between the preamble and the cursor.
	cursor := bus.Head()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(": serd event stream\n\n")) //nolint:errcheck
	fl.Flush()

	poll := time.NewTicker(ssePollInterval)
	defer poll.Stop()
	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()

	writeEvent := func(ev *BusEvent) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return true
		}
		if _, err := w.Write([]byte("event: " + ev.Kind + "\ndata: " + string(data) + "\n\n")); err != nil {
			return false
		}
		return true
	}

	flush := func() bool {
		for {
			evs, next, dropped := bus.Poll(cursor, 256)
			cursor = next
			if dropped > 0 {
				if _, err := w.Write([]byte(": dropped " + strconv.FormatUint(dropped, 10) + " events\n\n")); err != nil {
					return false
				}
			}
			for _, ev := range evs {
				if !writeEvent(ev) {
					return false
				}
			}
			if len(evs) > 0 || dropped > 0 {
				fl.Flush()
			}
			if len(evs) < 256 {
				return true
			}
		}
	}

	for {
		select {
		case <-r.Context().Done():
			return
		case <-closing:
			// Drain what's already published (includes the bus's own
			// shutdown marker), then send our terminal event and exit.
			flush()
			writeEvent(&BusEvent{Kind: "shutdown", Name: "server closing", T: time.Now().UnixNano()})
			fl.Flush()
			return
		case <-keepalive.C:
			if _, err := w.Write([]byte(": keepalive\n\n")); err != nil {
				return
			}
			fl.Flush()
		case <-poll.C:
			if !flush() {
				return
			}
		}
	}
}
