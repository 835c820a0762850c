// Package pipeline holds the cancellation contract every long-running
// phase of the SERD pipeline shares — S1's EM fits, per-bucket DP-SGD
// transformer training, GAN training, S2 entity synthesis and S3 pair
// labeling — plus the signal handling and terminal-status mapping the
// binaries build on it.
//
// Cancellation semantics: phase bodies own the cooperative-stop checks —
// each re-checks at chunk / minibatch / EM-iteration granularity via
// Stopped and, on a positive check, writes its final checkpoint before
// returning the cause (context.Canceled, context.DeadlineExceeded, or
// checkpoint.ErrInterrupted). Nothing checks for a stop before a stage
// starts: only the stage knows how to save its state, and a stop raised
// before any work must still reach the first stage that can persist a
// resumable position (pinned by the core interrupt tests). The stage
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

	"serd/internal/checkpoint"
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
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, checkpoint.ErrInterrupted)
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

// Stopped is the uniform cooperative-stop check stage bodies call at
// chunk / minibatch / EM-iteration granularity. It returns the context's
// error if the context is done, checkpoint.ErrInterrupted if the
// checkpointer's interrupt flag is set (nil-safe), and nil otherwise.
func Stopped(ctx context.Context, cp *checkpoint.Checkpointer) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if cp.Interrupted() {
		return checkpoint.ErrInterrupted
	}
	return nil
}

// TerminalStatus maps a run's final error to its journaled terminal
// status plus message — the single definition of "which errors are a
// clean abort vs a failure", shared by every binary's RunEnd call.
// Budget exhaustion, checkpoint interrupts and context cancellation are
// deliberate stops (StatusAborted); anything else failed.
func TerminalStatus(err error) (status, msg string) {
	if err == nil {
		return journal.StatusDone, ""
	}
	if errors.Is(err, journal.ErrBudgetExceeded) || cancellation(err) {
		return journal.StatusAborted, err.Error()
	}
	return journal.StatusFailed, err.Error()
}
