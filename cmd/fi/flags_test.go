package main

import (
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
		"adaptive": "", "bench": `"pathfinder"`, "ci-target": "", "compose": "",
		"compose-threshold": "", "fault-model": "", "heat-topk": "",
		"input": "", "metrics": "", "metrics-addr": "", "perinstr": "",
		"remote": "", "seed": "1", "shards": "", "top": "15", "trace": "",
		"trace-wallclock": "", "trials": "1000", "workers": "",
	})
}
