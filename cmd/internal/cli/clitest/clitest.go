// Package clitest reads a command's flag surface back from its -h output,
// so the command tests can pin every flag's name and default.
package clitest

import (
	"reflect"
	"strings"
	"testing"
)

// Surface parses flag.PrintDefaults output into flag name → printed
// default: the text of the trailing " (default X)" the flag package appends
// to non-zero defaults (string defaults keep their quotes), or "" for a
// zero default.
func Surface(usage string) map[string]string {
	out := map[string]string{}
	name := ""
	for _, line := range strings.Split(usage, "\n") {
		if strings.HasPrefix(line, "  -") {
			name = strings.Fields(line)[0][1:]
			out[name] = ""
			continue
		}
		if name == "" || !strings.HasPrefix(line, "    \t") {
			continue
		}
		out[name] = ""
		if i := strings.LastIndex(line, " (default "); i >= 0 && strings.HasSuffix(line, ")") {
			out[name] = line[i+len(" (default ") : len(line)-1]
		}
	}
	return out
}

// Check fails t unless the -h output lists exactly the wanted flags with
// the wanted defaults.
func Check(t *testing.T, usage string, want map[string]string) {
	t.Helper()
	if got := Surface(usage); !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}
