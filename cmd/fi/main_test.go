package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args []string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRunSmoke(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	code, out, errOut := runCmd(t, []string{
		"-bench", "pathfinder", "-trials", "40", "-trace", trace, "-metrics",
	})
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "fault-injection trials") || !strings.Contains(out, "telemetry summary") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	blob, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimRight(string(blob), "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("trace line %d is not valid JSON: %q", i+1, line)
		}
	}
}

func TestBadFlags(t *testing.T) {
	if code, _, _ := runCmd(t, []string{"-no-such-flag"}); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	if code, _, errOut := runCmd(t, []string{"-bench", "pathfinder", "-input", "1,2,3,4,5,6,7,8,9"}); code != 1 ||
		!strings.Contains(errOut, "arguments") {
		t.Fatalf("bad input arity: exit %d, stderr %q", code, errOut)
	}
}

// TestTelemetryWorkerEquivalence: every trial's RNG is derived from (seed,
// trial index), so the tally and the trace are identical for any worker
// count, including the default (no -workers flag).
func TestTelemetryWorkerEquivalence(t *testing.T) {
	dir := t.TempDir()
	var traces [][]byte
	for _, w := range []string{"", "1", "3"} {
		trace := filepath.Join(dir, "trace-w"+w+".jsonl")
		args := []string{"-bench", "pathfinder", "-trials", "40", "-trace", trace}
		if w != "" {
			args = append(args, "-workers", w)
		}
		code, _, errOut := runCmd(t, args)
		if code != 0 {
			t.Fatalf("workers=%q: exit %d, stderr: %s", w, code, errOut)
		}
		blob, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, blob)
	}
	for i, w := range []string{"1", "3"} {
		if !bytes.Equal(traces[0], traces[i+1]) {
			t.Fatalf("traces differ between the default and -workers %s", w)
		}
	}
}

// TestBatchKeepsTally: lockstep batching regroups trials but never changes
// their plans, so the default, -batch 1 and -batch 64 print the same tally.
func TestBatchKeepsTally(t *testing.T) {
	var tallies []string
	for _, batch := range []string{"", "1", "64"} {
		args := []string{"-bench", "pathfinder", "-trials", "300", "-seed", "7"}
		if batch != "" {
			args = append(args, "-batch", batch)
		}
		code, out, errOut := runCmd(t, args)
		if code != 0 {
			t.Fatalf("batch=%q: exit %d, stderr: %s", batch, code, errOut)
		}
		i := strings.Index(out, "300 fault-injection trials")
		if i < 0 {
			t.Fatalf("batch=%q: no tally in output:\n%s", batch, out)
		}
		tallies = append(tallies, out[i:])
	}
	for i, batch := range []string{"1", "64"} {
		if tallies[i+1] != tallies[0] {
			t.Fatalf("-batch %s tally differs from the default:\n%s\nvs\n%s", batch, tallies[i+1], tallies[0])
		}
	}
}
