package cli

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCITargetImpliesAdaptive(t *testing.T) {
	fi, err := parse(t, "-ci-target", "0.05").FI()
	if err != nil {
		t.Fatal(err)
	}
	if fi.CITarget != 0.05 {
		t.Fatalf("-ci-target 0.05 resolved to CITarget %v", fi.CITarget)
	}
}

func TestAdaptiveDefaultsCITarget(t *testing.T) {
	fi, err := parse(t, "-adaptive").FI()
	if err != nil {
		t.Fatal(err)
	}
	if fi.CITarget != campaign.DefaultCITarget {
		t.Fatalf("-adaptive resolved to CITarget %v, want %v", fi.CITarget, campaign.DefaultCITarget)
	}
	if fi, _ := parse(t).FI(); fi.CITarget != 0 {
		t.Fatalf("no adaptive flag resolved to CITarget %v, want a flat campaign", fi.CITarget)
	}
}

func TestFaultModelResolution(t *testing.T) {
	fi, err := parse(t, "-fault-model", "burst").FI()
	if err != nil || fi.Model != fault.BurstFlip {
		t.Fatalf("-fault-model burst: model %v, err %v", fi.Model, err)
	}
	if fi, err := parse(t, "-fault-model", fault.DefaultModelName).FI(); err != nil || fi.Model != nil {
		t.Fatalf("-fault-model %s must resolve to the nil default: %v, %v", fault.DefaultModelName, fi.Model, err)
	}
	_, err = parse(t, "-fault-model", "cosmic").FI()
	if err == nil {
		t.Fatal("unknown fault model accepted")
	}
	for _, name := range fault.ModelNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list registered model %q", err, name)
		}
	}
}

func TestFIThreadsEveryFlag(t *testing.T) {
	fi, err := parse(t, "-workers", "3", "-compose",
		"-compose-threshold", "0.2", "-heat-topk", "3").FI()
	if err != nil {
		t.Fatal(err)
	}
	if fi.Workers != 3 || !fi.Compose || fi.ComposeThreshold != 0.2 || fi.HeatTopK != 3 {
		t.Fatalf("flags lost in resolution: %+v", fi)
	}
}

func TestStartTelemetryOff(t *testing.T) {
	rec, stop, err := parse(t).StartTelemetry("test", io.Discard, io.Discard)
	if err != nil || rec != nil {
		t.Fatalf("no telemetry flags: recorder %v, err %v", rec, err)
	}
	stop()
}
