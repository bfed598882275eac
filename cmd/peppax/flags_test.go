package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/cmd/internal/cli/clitest"
)

// TestFlagSurface pins every flag's name and default as -h prints them;
// the shared FI and telemetry flags come from the cli package.
func TestFlagSurface(t *testing.T) {
	code, _, usage := runCmd(t, []string{"-h"})
	if code != 2 {
		t.Fatalf("-h: exit %d, want 2", code)
	}
	clitest.Check(t, usage, map[string]string{
		"adaptive": "", "baseline": "", "batch": "", "bench": `"pathfinder"`,
		"checkpoint-interval": "", "checkpoints": "", "ci-target": "", "compose": "",
		"compose-threshold": "", "compose-trials": "", "cpuprofile": "", "fault-model": "",
		"file": "", "generations": "200", "heat-topk": "", "max-sdc": "", "memprofile": "",
		"metrics": "", "metrics-addr": "", "pop": "16", "rep-trials": "30", "seed": "1",
		"spec": "", "trace": "", "trace-wallclock": "", "trials": "1000", "workers": "",
	})
}

// TestBaselineHonorsCheckpointInterval: -checkpoint-interval reaches the
// -baseline run as it reaches the search, so disabling checkpoints leaves
// the baseline with no snapshots to report.
func TestBaselineHonorsCheckpointInterval(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	code, _, errOut := runCmd(t, tinyArgs("-baseline", "-checkpoint-interval", "-1", "-trace", trace))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	lines := checkJSONL(t, trace)
	baseline := false
	for _, l := range lines {
		baseline = baseline || strings.Contains(l, `"ev":"baseline.done"`)
		if strings.Contains(l, `"ev":"baseline.checkpoints"`) || strings.Contains(l, `"ev":"search.fi_checkpoints"`) {
			t.Fatalf("checkpointing disabled, yet the trace records snapshots: %s", l)
		}
	}
	if !baseline {
		t.Fatal("trace has no baseline.done event")
	}
}
