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
		"adaptive": "", "baseline": "", "bench": `"pathfinder"`,
		"checkpoints": "", "ci-target": "", "compose": "",
		"compose-threshold": "", "compose-trials": "", "cpuprofile": "",
		"fault-model": "", "file": "", "generations": "200", "heat-topk": "",
		"max-sdc": "", "memprofile": "", "metrics": "", "metrics-addr": "",
		"pop": "16", "rep-trials": "30", "seed": "1", "spec": "", "trace": "",
		"trace-wallclock": "", "trials": "1000", "workers": "",
	})
}
