package pipeline

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"serd/internal/checkpoint"
	"serd/internal/journal"
)

// TestInterruptedWrapsCancellationWithStageName pins that
// cancellation-class causes come back as a *StageError naming the stage,
// with the cause still reachable by errors.Is.
func TestInterruptedWrapsCancellationWithStageName(t *testing.T) {
	for _, cause := range []error{
		context.Canceled,
		context.DeadlineExceeded,
		checkpoint.ErrInterrupted,
		fmt.Errorf("core: s2 interrupted at 5/48 entities: %w", context.Canceled),
	} {
		err := Interrupted("core.s2", cause)
		var se *StageError
		if !errors.As(err, &se) || se.Stage != "core.s2" || !errors.Is(err, cause) {
			t.Errorf("Interrupted(%v) = %v, want a *StageError for core.s2 wrapping it", cause, err)
		}
		if want := fmt.Sprintf("pipeline: stage %q: %v", "core.s2", cause); err.Error() != want {
			t.Errorf("Interrupted(%v).Error() = %q, want %q", cause, err, want)
		}
	}
}

// TestInterruptedDoesNotWrapOrdinaryErrors pins that every other error
// is returned as the very same value, and nil stays nil.
func TestInterruptedDoesNotWrapOrdinaryErrors(t *testing.T) {
	boom := errors.New("validation: bad input")
	if err := Interrupted("core.s1", boom); err != boom {
		t.Errorf("Interrupted(ordinary) = %v, want the unwrapped original", err)
	}
	if err := Interrupted("core.s1", nil); err != nil {
		t.Errorf("Interrupted(nil) = %v", err)
	}
}

func TestStopped(t *testing.T) {
	if err := Stopped(context.Background(), nil); err != nil {
		t.Fatalf("Stopped(background, nil) = %v", err)
	}
	if err := Stopped(nil, nil); err != nil {
		t.Fatalf("Stopped(nil, nil) = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Stopped(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stopped(canceled, nil) = %v", err)
	}
	cp, err := checkpoint.New(checkpoint.Config{Dir: t.TempDir(), Tool: "test"})
	if err != nil {
		t.Fatalf("checkpoint.New: %v", err)
	}
	if err := Stopped(context.Background(), cp); err != nil {
		t.Fatalf("Stopped(background, fresh cp) = %v", err)
	}
	cp.Interrupt()
	if err := Stopped(context.Background(), cp); !errors.Is(err, checkpoint.ErrInterrupted) {
		t.Fatalf("Stopped(background, interrupted cp) = %v", err)
	}
	// Context takes precedence when both fire: the context is the outer
	// cause (the signal handler cancels it AND interrupts the checkpointer).
	if err := Stopped(ctx, cp); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stopped(canceled, interrupted cp) = %v", err)
	}
}

func TestTerminalStatus(t *testing.T) {
	cases := []struct {
		err    error
		status string
	}{
		{nil, journal.StatusDone},
		{errors.New("disk full"), journal.StatusFailed},
		{fmt.Errorf("wrapped: %w", journal.ErrBudgetExceeded), journal.StatusAborted},
		{checkpoint.ErrInterrupted, journal.StatusAborted},
		{context.Canceled, journal.StatusAborted},
		{context.DeadlineExceeded, journal.StatusAborted},
		{&StageError{Stage: "core.s2", Err: context.Canceled}, journal.StatusAborted},
	}
	for _, c := range cases {
		status, msg := TerminalStatus(c.err)
		if status != c.status {
			t.Errorf("TerminalStatus(%v) = %q, want %q", c.err, status, c.status)
		}
		if (c.err == nil) != (msg == "") {
			t.Errorf("TerminalStatus(%v) msg = %q", c.err, msg)
		}
	}
}
