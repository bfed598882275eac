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
		"adaptive": "", "benches": "", "ci-target": "", "compose": "",
		"compose-threshold": "", "compose-trials": "", "exp": "",
		"fault-model": "", "heat-topk": "", "json": "", "list": "",
		"metrics": "", "metrics-addr": "", "out": "", "quick": "", "seed": "",
		"strategy": "", "trace": "", "trace-wallclock": "", "workers": "",
	})
}
