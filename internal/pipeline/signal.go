package pipeline

import (
	"context"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// exitHook is what a second interrupt signal calls. A package variable so
// tests can intercept the force-exit instead of dying.
var exitHook = func(code int) { os.Exit(code) }

// forceExitCode is the conventional status for death-by-SIGINT (128+2).
const forceExitCode = 130

// SignalContext returns a copy of parent that is canceled on the first
// SIGINT/SIGTERM — the signal.NotifyContext pattern — with one addition:
// a SECOND signal force-exits the process immediately with status 130,
// so a user whose graceful shutdown is stuck (a slow final checkpoint, a
// wedged worker) always has an out.
//
// The first signal is the graceful path: the returned context's
// cancellation propagates through the pipeline's stages, each stage
// writes its final checkpoint, and the run journals a clean "aborted" status.
//
// The returned stop function releases the signal handler and resources;
// call it once the run is done (typically via defer). After stop, signals
// revert to their default disposition.
func SignalContext(parent context.Context) (ctx context.Context, stop func()) {
	return signalContext(parent, os.Interrupt, syscall.SIGTERM)
}

// signalContext is SignalContext with the signal set injectable for tests.
func signalContext(parent context.Context, signals ...os.Signal) (context.Context, func()) {
	ctx, cancel := context.WithCancel(parent)
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, signals...)
	done := make(chan struct{})
	go func() {
		select {
		case <-sigc:
			cancel()
		case <-done:
			return
		}
		select {
		case <-sigc:
			exitHook(forceExitCode)
		case <-done:
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(sigc)
			cancel()
			close(done)
		})
	}
	return ctx, stop
}
