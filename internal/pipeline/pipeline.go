// Package pipeline holds the cancellation contract every long-running
// phase of the SERD pipeline shares — S1's EM fits, per-bucket DP-SGD
// transformer training, GAN training, S2 entity synthesis and S3 pair
// labeling — plus the signal handling and terminal-status mapping the
// binaries build on it.
//
// Cancellation semantics: a run stops only when its context is canceled
// (SignalContext cancels it on SIGINT/SIGTERM). Phase bodies own the
// cooperative-stop checks — each re-checks ctx.Err() at chunk /
// minibatch / EM-iteration granularity and, on a positive check, writes
// its final checkpoint before returning the cause (context.Canceled or
// context.DeadlineExceeded). Nothing checks for a stop before a stage
// starts: only the stage knows how to save its state, and a stop raised
// before any work must still reach the first stage that can persist a
// resumable position (pinned by the core cancel tests). The stage
// sequence wraps the returned cause with Interrupted, naming the
// interrupted stage; non-cancellation errors pass through unchanged.
//
// core.Synthesize runs its stages as a direct sequence (DESIGN §11); the
// journal/phase invariants it keeps — a failed stage leaves its span
// open, the S1 checkpoint is written after the core.s1 span ends, silent
// stages emit no journal events — are documented there.
package pipeline

import (
	"context"
	"errors"
	"fmt"

	"serd/internal/journal"
)

// StageError wraps a cancellation-class error with the name of the stage
// that was interrupted.
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string {
	return fmt.Sprintf("pipeline: stage %q: %v", e.Stage, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// cancellation reports whether err is one of the cooperative-stop causes.
func cancellation(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// Interrupted annotates a stage's error for its caller: a
// cancellation-class err comes back as a *StageError naming stage;
// everything else (validation errors, I/O failures) is returned
// unchanged, so callers' errors.Is chains and messages are untouched.
func Interrupted(stage string, err error) error {
	if !cancellation(err) {
		return err
	}
	return &StageError{Stage: stage, Err: err}
}

// TerminalStatus maps a run's final error to its journaled terminal
// status plus message — the single definition of "which errors are a
// clean abort vs a failure", shared by every binary's RunEnd call.
// Budget exhaustion and context cancellation are deliberate stops
// (StatusAborted); anything else failed.
func TerminalStatus(err error) (status, msg string) {
	if err == nil {
		return journal.StatusDone, ""
	}
	if errors.Is(err, journal.ErrBudgetExceeded) || cancellation(err) {
		return journal.StatusAborted, err.Error()
	}
	return journal.StatusFailed, err.Error()
}
