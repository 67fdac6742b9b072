package e2e

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// TestTraceDirReconciles is the end-to-end observability gate: a small traced
// suite run by the real tsvd-run must leave a directory whose events.jsonl is
// schema-valid and reconciles exactly with the detector counters in
// summary.json (docs/OBSERVABILITY.md) — the check `tsvd-triage` applies for
// trace consumers.
func TestTraceDirReconciles(t *testing.T) {
	needBinaries(t)
	dir := t.TempDir()
	runBin(t, bins.run, "-modules", "5", "-trace", dir)
	events, kinds, err := trace.CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 || kinds == 0 {
		t.Fatalf("traced run wrote %d events of %d kinds; nothing was checked", events, kinds)
	}

	// The check must be live: lose one event and it has to notice.
	path := filepath.Join(dir, "events.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastLine := bytes.LastIndexByte(bytes.TrimRight(data, "\n"), '\n') + 1
	if err := os.WriteFile(path, data[:lastLine], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := trace.CheckDir(dir); err == nil {
		t.Fatal("CheckDir accepted a trace with its last event removed")
	}
}

// TestTriageCLIRefusesUnreconciledTrace: tsvd-triage applies the same check
// to every directory it ingests — a trace that lost an event would give wrong
// opportunity counts and explanation slices, so it is refused, not folded.
func TestTriageCLIRefusesUnreconciledTrace(t *testing.T) {
	needBinaries(t)
	dir := t.TempDir()
	runBin(t, bins.run, "-modules", "5", "-trace", dir)
	out := filepath.Join(t.TempDir(), "bugs")
	runBin(t, bins.triage, "-out", out, dir)

	path := filepath.Join(dir, "events.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastLine := bytes.LastIndexByte(bytes.TrimRight(data, "\n"), '\n') + 1
	if err := os.WriteFile(path, data[:lastLine], 0o644); err != nil {
		t.Fatal(err)
	}
	msg, err := exec.Command(bins.triage, "-out", out, dir).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !bytes.Contains(msg, []byte("drained")) {
		t.Fatalf("tsvd-triage on a trace with its last event removed: %v\n%s", err, msg)
	}
}
