package pipeline

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"serd/internal/journal"
)

// TestInterruptedWrapsCancellationWithStageName pins that
// cancellation-class causes come back as a *StageError naming the stage,
// with the cause still reachable by errors.Is.
func TestInterruptedWrapsCancellationWithStageName(t *testing.T) {
	for _, cause := range []error{
		context.Canceled,
		context.DeadlineExceeded,
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

func TestTerminalStatus(t *testing.T) {
	cases := []struct {
		err    error
		status string
	}{
		{nil, journal.StatusDone},
		{errors.New("disk full"), journal.StatusFailed},
		{fmt.Errorf("wrapped: %w", journal.ErrBudgetExceeded), journal.StatusAborted},
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
