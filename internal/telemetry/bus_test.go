package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

func TestBusPublishPoll(t *testing.T) {
	b := NewBus(8)
	if b.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", b.Cap())
	}
	for i := 0; i < 5; i++ {
		b.Publish(&BusEvent{Kind: "span", Name: fmt.Sprintf("s%d", i)})
	}
	evs, next, dropped := b.Poll(0, 0)
	if len(evs) != 5 || next != 5 || dropped != 0 {
		t.Fatalf("Poll = %d events, next %d, dropped %d; want 5, 5, 0", len(evs), next, dropped)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.Name != fmt.Sprintf("s%d", i) {
			t.Errorf("event %d = seq %d name %q", i, ev.Seq, ev.Name)
		}
	}
	// No new events: cursor stays put.
	evs, next, _ = b.Poll(next, 0)
	if len(evs) != 0 || next != 5 {
		t.Fatalf("idle Poll = %d events, next %d", len(evs), next)
	}
}

func TestBusSizeRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultBusSize}, {-3, DefaultBusSize}, {1, 1}, {2, 2}, {3, 4}, {100, 128},
	} {
		if got := NewBus(tc.in).Cap(); got != tc.want {
			t.Errorf("NewBus(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestBusDropOldest(t *testing.T) {
	b := NewBus(4)
	for i := 0; i < 10; i++ {
		b.Publish(&BusEvent{Kind: "span"})
	}
	evs, next, dropped := b.Poll(0, 0)
	if dropped != 6 {
		t.Errorf("dropped = %d, want 6", dropped)
	}
	if len(evs) != 4 || next != 10 {
		t.Errorf("got %d events, next %d; want 4, 10", len(evs), next)
	}
	if evs[0].Seq != 6 || evs[3].Seq != 9 {
		t.Errorf("surviving range = [%d, %d], want [6, 9]", evs[0].Seq, evs[3].Seq)
	}
}

func TestBusPollMax(t *testing.T) {
	b := NewBus(16)
	for i := 0; i < 10; i++ {
		b.Publish(&BusEvent{Kind: "span"})
	}
	evs, next, _ := b.Poll(0, 3)
	if len(evs) != 3 || next != 3 {
		t.Fatalf("Poll(0,3) = %d events, next %d", len(evs), next)
	}
	evs, next, _ = b.Poll(next, 100)
	if len(evs) != 7 || next != 10 {
		t.Fatalf("Poll(3,100) = %d events, next %d", len(evs), next)
	}
}

// TestBusPollMaxSkipsUnstoredSlot pins the cursor Poll returns when a
// slot inside the range is lost (here: claimed by a producer that has not
// stored yet): next must be past every sequence the call accounted for,
// so a follow-up poll neither re-delivers an event nor counts one twice.
func TestBusPollMaxSkipsUnstoredSlot(t *testing.T) {
	b := NewBus(16)
	b.Publish(&BusEvent{Kind: "span"})
	b.Publish(&BusEvent{Kind: "span"})
	b.seq.Add(1) // seq 2 claimed, never stored
	for i := 0; i < 3; i++ {
		b.Publish(&BusEvent{Kind: "span"})
	}
	evs, next, dropped := b.Poll(0, 3)
	if len(evs) != 3 || dropped != 1 || next != 4 {
		t.Fatalf("Poll(0,3) = %d events, next %d, dropped %d; want 3, 4, 1", len(evs), next, dropped)
	}
	evs, next, dropped = b.Poll(next, 3)
	if len(evs) != 2 || dropped != 0 || next != 6 || evs[0].Seq != 4 {
		t.Fatalf("Poll(4,3) = %v, next %d, dropped %d; want seqs 4 and 5, 6, 0", evs, next, dropped)
	}
}

func TestBusNilSafe(t *testing.T) {
	var b *Bus
	b.Publish(&BusEvent{Kind: "span"}) // must not panic
	if b.Cap() != 0 || b.Head() != 0 {
		t.Fatal("nil bus should report zero capacity and head")
	}
	evs, next, dropped := b.Poll(7, 10)
	if evs != nil || next != 7 || dropped != 0 {
		t.Fatalf("nil Poll = %v, %d, %d", evs, next, dropped)
	}
}

// TestBusConcurrent hammers the bus from many producers and consumers
// under the race detector: every event a consumer observes must be
// internally consistent (Seq matches the polled index), and the total of
// received + dropped must equal the number published.
func TestBusConcurrent(t *testing.T) {
	b := NewBus(64)
	const producers = 8
	const perProducer = 500

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				b.Publish(&BusEvent{Kind: "span", Name: fmt.Sprintf("p%d", p)})
			}
		}(p)
	}

	done := make(chan struct{})
	var got, dropped uint64
	go func() {
		defer close(done)
		var cursor uint64
		for {
			evs, next, d := b.Poll(cursor, 32)
			got += uint64(len(evs))
			dropped += d
			cursor = next
			if got+dropped >= producers*perProducer {
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if got+dropped != producers*perProducer {
		t.Fatalf("received %d + dropped %d != published %d", got, dropped, producers*perProducer)
	}
	if b.Head() != producers*perProducer {
		t.Fatalf("Head = %d, want %d", b.Head(), producers*perProducer)
	}
}
