package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"serd/internal/checkpoint"
	"serd/internal/journal"
)

// TestMain lets the compiled test binary double as the serd CLI: the
// subprocess crash tests re-exec it with SERD_TEST_MAIN=1 and kill it for
// real (SIGKILL, SIGTERM) instead of simulating faults in-process.
func TestMain(m *testing.M) {
	if os.Getenv("SERD_TEST_MAIN") == "1" {
		err := run(os.Args[1:], os.Stdout)
		switch {
		case err == nil:
			os.Exit(0)
		case errors.Is(err, context.Canceled):
			// A signal canceling the run's context is the clean aborted
			// exit.
			os.Exit(3)
		default:
			fmt.Fprintln(os.Stderr, "serd:", err)
			os.Exit(1)
		}
	}
	// The run registry defaults to ~/.serd/runs; tests must never write
	// into the real home directory, so the whole test process (and every
	// re-exec'd subprocess, which inherits the env) gets a sandbox HOME.
	if home, err := os.MkdirTemp("", "serd-test-home-*"); err == nil {
		os.Setenv("HOME", home)
		code := m.Run()
		os.RemoveAll(home)
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// chdir switches the process working directory for the duration of the
// test, so runs can journal identical relative -in/-out paths.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// copyDir flat-copies a run output directory so it survives the next run.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// sameDataset asserts the synthesized CSVs in two run directories are
// byte-identical — the resume-equivalence contract of ISSUE 4.
func sameDataset(t *testing.T, label, got, want string) {
	t.Helper()
	for _, name := range []string{"A.csv", "B.csv", "matches.csv"} {
		g, err := os.ReadFile(filepath.Join(got, name))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		w, err := os.ReadFile(filepath.Join(want, name))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if string(g) != string(w) {
			t.Fatalf("%s: %s differs from the uninterrupted run", label, name)
		}
	}
}

// strippedEvents projects a journal down to its deterministic content:
// volatile fields (seq, ts, dur_s, chain) and the resume splice markers are
// dropped, so an interrupted-and-resumed journal must equal the
// uninterrupted one event for event.
func strippedEvents(t *testing.T, path string) []journal.Event {
	t.Helper()
	events, err := journal.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]journal.Event, 0, len(events))
	for _, ev := range events {
		if ev.Type == "resume" {
			continue
		}
		ev.Seq, ev.TS, ev.DurS, ev.Chain = 0, "", 0, ""
		out = append(out, ev)
	}
	return out
}

func sameJournal(t *testing.T, label, got, want string) {
	t.Helper()
	g, w := strippedEvents(t, got), strippedEvents(t, want)
	if len(g) != len(w) {
		t.Fatalf("%s: journal has %d non-resume events, want %d", label, len(g), len(w))
	}
	for i := range g {
		if !reflect.DeepEqual(g[i], w[i]) {
			t.Fatalf("%s: journal event %d differs:\n got %s %s\nwant %s %s",
				label, i, g[i].Type, g[i].Data, w[i].Type, w[i].Data)
		}
	}
}

// killAndResume kills a run at the k-th checkpoint save matching match
// (via the checkpointer's fault hook), checks the clean aborted status,
// resumes with -resume, and then verifies the full resume-equivalence
// contract against the baseline "base" directory: byte-identical dataset,
// identical stripped journal, `audit verify` passing, `audit diff` clean.
func killAndResume(t *testing.T, args []string, k int, match func(m checkpoint.Meta) bool) {
	t.Helper()
	for _, dir := range []string{"out", "ckpt"} {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	killed, nth := false, 0
	oldHook := testHookCheckpointer
	testHookCheckpointer = func(cp *checkpoint.Checkpointer) {
		cp.FaultHook = func(m checkpoint.Meta) error {
			if match(m) {
				nth++
				if nth == k {
					killed = true
					return context.Canceled
				}
			}
			return nil
		}
	}
	err := run(args, io.Discard)
	testHookCheckpointer = oldHook
	if !killed {
		t.Fatalf("fault hook never hit (err = %v)", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: err = %v, want context.Canceled", err)
	}
	sum, err := loadSummary(filepath.Join("out", journal.DefaultName))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Status != journal.StatusAborted {
		t.Fatalf("killed run journaled status %q, want %q", sum.Status, journal.StatusAborted)
	}

	if err := run(append(args, "-resume"), io.Discard); err != nil {
		t.Fatalf("resume: %v", err)
	}
	sameDataset(t, "resumed", "out", "base")
	sameJournal(t, "resumed",
		filepath.Join("out", journal.DefaultName),
		filepath.Join("base", journal.DefaultName))
	var buf strings.Builder
	if err := run([]string{"audit", "verify", "out"}, &buf); err != nil {
		t.Fatalf("audit verify after resume: %v\n%s", err, buf.String())
	}
	buf.Reset()
	if err := run([]string{"audit", "show", "out"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "resume at") {
		t.Errorf("audit show does not surface the resume event:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"audit", "diff", "base", "out"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "runs are identical") {
		t.Errorf("audit diff base vs resumed:\n%s", buf.String())
	}
}

// TestRunKillAndResumeEndToEnd is the CLI fault-injection harness over the
// default (rule-synthesizer) pipeline: the run is killed at the S1/S2
// phase boundary and at periodic mid-S2 checkpoints, resumed with -resume,
// and must reproduce the uninterrupted run exactly.
func TestRunKillAndResumeEndToEnd(t *testing.T) {
	root := t.TempDir()
	chdir(t, root)
	writeSampleInput(t, "in")

	base := []string{
		"-in", "in", "-out", "out",
		"-schema", "name:text,address:text,city:cat,flavor:cat",
		"-seed", "7",
	}
	if err := run(base, io.Discard); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	copyDir(t, "out", "base")

	kills := []struct {
		name  string
		k     int
		phase string
	}{
		// The S1/S2 phase boundary.
		{"post-s1", 1, "s1"},
		// The second periodic S2 checkpoint.
		{"early-s2", 2, "s2"},
		// Deep into S2, several checkpoints later.
		{"late-s2", 5, "s2"},
	}
	args := append(base, "-checkpoint-dir", "ckpt", "-checkpoint-every", "8")
	for _, kc := range kills {
		t.Run(kc.name, func(t *testing.T) {
			killAndResume(t, args, kc.k, func(m checkpoint.Meta) bool { return m.Phase == kc.phase })
		})
	}
}

// TestRunTransformerKillAndResume kills the DP-SGD training phase between
// epochs inside a bucket and resumes: the restored optimizer/accountant/RNG
// state must reproduce the uninterrupted run, and the restored ledger must
// not double-charge. The pairs/batch ratio leaves a partial final minibatch
// (8 % 3 != 0), so the resumed ε recomputation also crosses the fixed
// tail-lot accounting.
func TestRunTransformerKillAndResume(t *testing.T) {
	root := t.TempDir()
	chdir(t, root)
	writeSampleInput(t, "in")

	base := []string{
		"-in", "in", "-out", "out",
		"-schema", "name:text,address:text,city:cat,flavor:cat",
		"-seed", "7", "-size-a", "8", "-size-b", "8",
		"-transformer", "-tx-buckets", "2", "-tx-pairs", "8", "-tx-epochs", "2", "-tx-batch", "3",
		"-tx-candidates", "2",
	}
	if err := run(base, io.Discard); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	copyDir(t, "out", "base")

	args := append(base, "-checkpoint-dir", "ckpt", "-checkpoint-every", "4")
	// The second save of the second trained column is its first post-epoch
	// save: the kill lands between epochs inside one bucket's DP-SGD loop,
	// after the first column's bank checkpointed as done.
	killAndResume(t, args, 2, func(m checkpoint.Meta) bool {
		return m.Phase == "train" && m.Column == "address"
	})
}

// TestRunResumeRejectsMismatchedFlags pins the resume guard rails: a
// different seed or run config must refuse to splice onto the checkpoint.
func TestRunResumeRejectsMismatchedFlags(t *testing.T) {
	root := t.TempDir()
	chdir(t, root)
	writeSampleInput(t, "in")

	args := []string{
		"-in", "in", "-out", "out",
		"-schema", "name:text,address:text,city:cat,flavor:cat",
		"-seed", "7", "-checkpoint-dir", "ckpt", "-checkpoint-every", "8",
	}
	oldHook := testHookCheckpointer
	testHookCheckpointer = func(cp *checkpoint.Checkpointer) {
		cp.FaultHook = func(m checkpoint.Meta) error {
			if m.Phase == "s2" {
				return context.Canceled
			}
			return nil
		}
	}
	err := run(args, io.Discard)
	testHookCheckpointer = oldHook
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: %v", err)
	}

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"seed", []string{"-in", "in", "-out", "out", "-schema", "name:text,address:text,city:cat,flavor:cat",
			"-seed", "8", "-checkpoint-dir", "ckpt", "-resume"}, "seed"},
		{"config", []string{"-in", "in", "-out", "out", "-schema", "name:text,address:text,city:cat,flavor:cat",
			"-seed", "7", "-no-reject", "-checkpoint-dir", "ckpt", "-resume"}, "flag mismatch"},
		{"no-journal", []string{"-in", "in", "-out", "out", "-schema", "name:text,address:text,city:cat,flavor:cat",
			"-seed", "7", "-no-journal", "-checkpoint-dir", "ckpt", "-resume"}, "journal seam"},
		{"no-dir", []string{"-in", "in", "-out", "out", "-schema", "name:text,address:text,city:cat,flavor:cat",
			"-seed", "7", "-resume"}, "-checkpoint-dir"},
		// The generator family is a run parameter like block_*: switching
		// the backend to privbayes for a resume of a default (gmm) run
		// must refuse.
		{"generator-on", []string{"-in", "in", "-out", "out", "-schema", "name:text,address:text,city:cat,flavor:cat",
			"-seed", "7", "-s1-generator", "privbayes", "-checkpoint-dir", "ckpt", "-resume"}, "flag mismatch"},
	}
	for _, c := range cases {
		err := run(c.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}

	// The original flags still resume fine.
	if err := run(append(args, "-resume"), io.Discard); err != nil {
		t.Fatalf("matching resume: %v", err)
	}
}

// TestRunResumeRejectsGeneratorMismatch pins the guard rails around a
// privbayes run: resuming it without the flag (the gmm default), with
// -s1-generator gmm, or with different backend parameters must refuse to
// splice onto the checkpoint.
func TestRunResumeRejectsGeneratorMismatch(t *testing.T) {
	root := t.TempDir()
	chdir(t, root)
	writeSampleInput(t, "in")

	schema := "name:text,address:text,city:cat,flavor:cat"
	args := []string{
		"-in", "in", "-out", "out", "-schema", schema,
		"-seed", "7", "-s1-generator", "privbayes", "-gen-epsilon", "2",
		"-checkpoint-dir", "ckpt", "-checkpoint-every", "8",
	}
	oldHook := testHookCheckpointer
	testHookCheckpointer = func(cp *checkpoint.Checkpointer) {
		cp.FaultHook = func(m checkpoint.Meta) error {
			if m.Phase == "s2" {
				return context.Canceled
			}
			return nil
		}
	}
	err := run(args, io.Discard)
	testHookCheckpointer = oldHook
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: %v", err)
	}

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"backend-off", []string{"-in", "in", "-out", "out", "-schema", schema,
			"-seed", "7", "-checkpoint-dir", "ckpt", "-resume"}, "flag mismatch"},
		{"backend-swapped", []string{"-in", "in", "-out", "out", "-schema", schema,
			"-seed", "7", "-s1-generator", "gmm", "-checkpoint-dir", "ckpt", "-resume"}, "flag mismatch"},
		{"epsilon-changed", []string{"-in", "in", "-out", "out", "-schema", schema,
			"-seed", "7", "-s1-generator", "privbayes", "-gen-epsilon", "3", "-checkpoint-dir", "ckpt", "-resume"}, "flag mismatch"},
	}
	for _, c := range cases {
		err := run(c.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}

	// The original flags still resume fine.
	if err := run(append(args, "-resume"), io.Discard); err != nil {
		t.Fatalf("matching resume: %v", err)
	}
}

// TestRunPrivBayesKillAndResumeSweep is the fault-injection harness over
// the DP backend: the run is killed after EVERY checkpoint save in turn —
// the S1 boundary and each periodic mid-S2 save — and each resume must
// reproduce the uninterrupted run byte for byte, with `audit verify`
// passing (the restored ledger must not double-charge the privbayes fit)
// and `audit diff` clean against the baseline.
func TestRunPrivBayesKillAndResumeSweep(t *testing.T) {
	root := t.TempDir()
	chdir(t, root)
	writeSampleInput(t, "in")

	base := []string{
		"-in", "in", "-out", "out",
		"-schema", "name:text,address:text,city:cat,flavor:cat",
		"-seed", "7", "-s1-generator", "privbayes", "-gen-epsilon", "2",
	}
	if err := run(base, io.Discard); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	copyDir(t, "out", "base")

	// Count the checkpoint saves of an uninterrupted checkpointed run, then
	// kill after each one.
	args := append(base, "-checkpoint-dir", "ckpt", "-checkpoint-every", "8")
	for _, dir := range []string{"out", "ckpt"} {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	oldHook := testHookCheckpointer
	testHookCheckpointer = func(cp *checkpoint.Checkpointer) {
		cp.FaultHook = func(m checkpoint.Meta) error {
			total++
			return nil
		}
	}
	err := run(args, io.Discard)
	testHookCheckpointer = oldHook
	if err != nil {
		t.Fatalf("counting run: %v", err)
	}
	if total < 2 {
		t.Fatalf("only %d checkpoint saves; the sweep needs at least the S1 boundary and one mid-S2 save", total)
	}
	for k := 1; k <= total; k++ {
		t.Run(fmt.Sprintf("kill-after-save-%d", k), func(t *testing.T) {
			killAndResume(t, args, k, func(checkpoint.Meta) bool { return true })
		})
	}
}

// spawnSerd re-execs the test binary as the serd CLI and returns the
// running command. extraEnv entries are appended after SERD_TEST_MAIN.
func spawnSerd(t *testing.T, dir string, extraEnv []string, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(append(os.Environ(), "SERD_TEST_MAIN=1"), extraEnv...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// waitForCheckpoint polls until the subprocess writes its first mid-S2
// checkpoint or exits. It reports whether the process is still running.
func waitForCheckpoint(t *testing.T, cmd *exec.Cmd, path string) bool {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(path); err == nil {
			return true
		}
		if cmd.ProcessState != nil || cmd.Process.Signal(syscall.Signal(0)) != nil {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no checkpoint at %s within 30s", path)
	return false
}

// runSubprocessCrashResume drives one real-process crash: baseline run,
// subprocess killed with sig mid-S2, in-process resume, byte comparison.
func runSubprocessCrashResume(t *testing.T, sig syscall.Signal) {
	root := t.TempDir()
	chdir(t, root)
	writeSampleInput(t, "in")

	args := []string{
		"-in", "in", "-out", "out",
		"-schema", "name:text,address:text,city:cat,flavor:cat",
		"-seed", "11",
	}
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	copyDir(t, "out", "base")
	for _, dir := range []string{"out", "ckpt"} {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}

	args = append(args, "-checkpoint-dir", "ckpt", "-checkpoint-every", "3")
	cmd := spawnSerd(t, root, nil, args...)
	if waitForCheckpoint(t, cmd, filepath.Join(root, "ckpt", "s2.ckpt")) {
		if err := cmd.Process.Signal(sig); err != nil {
			t.Fatal(err)
		}
	}
	err := cmd.Wait()
	switch {
	case err == nil:
		// The run outraced the kill; its output still must match.
		sameDataset(t, "unkilled subprocess", "out", "base")
		return
	case sig == syscall.SIGTERM || sig == syscall.SIGINT:
		// The first signal cancels the run's context; the interrupted
		// stage saves a final checkpoint and the process exits through the
		// clean aborted path (TestMain maps the cancellation to 3).
		if cmd.ProcessState.ExitCode() != 3 {
			t.Fatalf("%v exit: %v (code %d), want 3", sig, err, cmd.ProcessState.ExitCode())
		}
		sum, err := loadSummary(filepath.Join("out", journal.DefaultName))
		if err != nil {
			t.Fatal(err)
		}
		if sum.Status != journal.StatusAborted {
			t.Fatalf("%v journaled status %q, want %q", sig, sum.Status, journal.StatusAborted)
		}
	}

	if err := run(append(args, "-resume"), io.Discard); err != nil {
		t.Fatalf("resume after %v: %v", sig, err)
	}
	sameDataset(t, sig.String(), "out", "base")
	var buf strings.Builder
	if err := run([]string{"audit", "verify", "out"}, &buf); err != nil {
		t.Fatalf("audit verify: %v\n%s", err, buf.String())
	}
}

// TestRunSIGKILLSubprocessResume kills a real serd process outright —
// no handlers, no final checkpoint, possibly a torn journal tail — and
// resumes from whatever the last durable checkpoint covers.
func TestRunSIGKILLSubprocessResume(t *testing.T) {
	runSubprocessCrashResume(t, syscall.SIGKILL)
}

// TestRunSIGTERMSubprocessResume exercises the signal handler: SIGTERM
// must save a final checkpoint, journal a clean aborted status, and resume
// bit-identically.
func TestRunSIGTERMSubprocessResume(t *testing.T) {
	runSubprocessCrashResume(t, syscall.SIGTERM)
}

// TestRunSIGINTSubprocessResume is the same contract for ^C: the first
// SIGINT cancels the run's context gracefully — final checkpoint, aborted
// status, bit-identical resume.
func TestRunSIGINTSubprocessResume(t *testing.T) {
	runSubprocessCrashResume(t, syscall.SIGINT)
}

// TestRunDoubleSIGINTForceExit drives the escape hatch end to end: the
// first SIGINT starts a graceful abort which (via SERD_TEST_HANG_ABORT)
// wedges on the way out, and the second SIGINT must force-exit the real
// process immediately with status 130.
func TestRunDoubleSIGINTForceExit(t *testing.T) {
	root := t.TempDir()
	chdir(t, root)
	writeSampleInput(t, "in")

	args := []string{
		"-in", "in", "-out", "out",
		"-schema", "name:text,address:text,city:cat,flavor:cat",
		"-seed", "11",
	}
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	copyDir(t, "out", "base")
	for _, dir := range []string{"out", "ckpt"} {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}

	args = append(args, "-checkpoint-dir", "ckpt", "-checkpoint-every", "3")
	cmd := spawnSerd(t, root, []string{"SERD_TEST_HANG_ABORT=1"}, args...)
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	if !waitForCheckpoint(t, cmd, filepath.Join(root, "ckpt", "s2.ckpt")) {
		t.Skip("run finished before the first signal could land")
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	// The graceful abort completes its journal (run_end aborted) and then
	// hangs in the test hook; wait for the journal so the second signal
	// provably arrives while the shutdown is wedged, not before the first
	// was handled.
	deadline := time.Now().Add(30 * time.Second)
	for {
		sum, err := loadSummary(filepath.Join("out", journal.DefaultName))
		if err == nil && sum.Status == journal.StatusAborted {
			break
		}
		if cmd.Process.Signal(syscall.Signal(0)) != nil {
			t.Fatal("process exited before the graceful abort journaled")
		}
		if time.Now().After(deadline) {
			t.Fatalf("no aborted journal status within 30s (last err %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if code := cmd.ProcessState.ExitCode(); code != 130 {
		t.Fatalf("double SIGINT exit: %v (code %d), want 130", err, code)
	}
	// The force-exit interrupted nothing durable: the first signal's final
	// checkpoint still resumes bit-identically.
	if err := run(append(args, "-resume"), io.Discard); err != nil {
		t.Fatalf("resume after force-exit: %v", err)
	}
	sameDataset(t, "double-SIGINT", "out", "base")
}
