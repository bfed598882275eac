// Command peppaxd is the PEPPA-X FI-campaign service: a long-running HTTP
// job server for whole-program FI campaigns (flat and adaptive),
// compositional sensitivity estimates, and full SDC-bound searches.
//
//	peppaxd [-addr 127.0.0.1:9470] [-slots 2] [-queue 8]
//	        [-peers http://h1:9470,http://h2:9470] [-golden-cap 32]
//	        [-profile-cap 256] [-max-job-tokens N] [-fault-model burst]
//	        [-worker] [-trace out.jsonl]
//
// POST /jobs streams JSONL progress events and ends with one JSON result
// document; GET /metrics serves Prometheus counters and gauges; POST /shard
// runs one trial range of a flat campaign for a peer coordinator. -worker
// disables /jobs, the shape a range-executing peer runs. With -peers, each
// flat campaign runs one contiguous trial range here and one on each peer;
// adaptive, sensitivity and search jobs run here alone. Identical job specs
// produce bit-identical campaign tallies at any -slots or -peers
// configuration; SIGINT/SIGTERM drains inflight jobs before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/parallel"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run starts the daemon and blocks until shutdown. ready, when non-nil,
// receives the bound listen address once the server is accepting (a test
// hook; the same fact is printed to stderr).
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("peppaxd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:9470", "listen address")
		slots        = fs.Int("slots", service.DefaultSlots, "jobs running concurrently")
		queue        = fs.Int("queue", service.DefaultQueueCap, "jobs waiting for a slot before submissions get 429")
		peers        = fs.String("peers", "", "comma-separated base URLs of peer peppaxd workers; each runs one trial range of every flat campaign")
		goldenCap    = fs.Int("golden-cap", service.DefaultGoldenCap, "golden-run cache capacity (LRU entries)")
		profileCap   = fs.Int("profile-cap", service.DefaultProfileCap, "compose profile cache capacity (LRU entries)")
		maxJobTokens = fs.Int64("max-job-tokens", service.DefaultMaxJobTokens, "default per-job dynamic-instruction budget (negative = unlimited)")
		faultModel   = fs.String("fault-model", "", "default fault model for jobs that leave fault_model unset: "+strings.Join(fault.ModelNames(), ", ")+" (default bitflip)")
		worker       = fs.Bool("worker", false, "worker mode: serve only /shard, /metrics and /healthz")
		tracePath    = fs.String("trace", "", "write the service telemetry trace to this file on shutdown")
		drainWait    = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for inflight jobs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "peppaxd:", err)
		return 1
	}
	if _, err := fault.CampaignModel(*faultModel); err != nil {
		return fail(err)
	}

	var sink io.Writer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		sink = f
	}
	rec := telemetry.New(telemetry.Options{Sink: sink, WallClock: true})
	parallel.SetObserver(telemetry.PoolObserver(rec))
	defer parallel.SetObserver(nil)

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, strings.TrimRight(p, "/"))
		}
	}

	srv := service.New(service.Config{
		Slots:        *slots,
		QueueCap:     *queue,
		GoldenCap:    *goldenCap,
		ProfileCap:   *profileCap,
		Peers:        peerList,
		MaxJobTokens: *maxJobTokens,
		FaultModel:   *faultModel,
		WorkerOnly:   *worker,
		Recorder:     rec,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stderr, "peppaxd: listening on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// Graceful shutdown: stop admitting, drain inflight jobs (bounded),
	// flush the telemetry trace, then exit with the signal convention.
	done := make(chan int, 1)
	stop := telemetry.OnShutdownSignal(func(sig os.Signal) {
		fmt.Fprintf(stderr, "peppaxd: %v: draining...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "peppaxd: drain:", err)
		}
		hs.Shutdown(ctx)
		done <- telemetry.SignalExitCode(sig)
	})
	defer stop()

	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fail(err)
	}
	// Serve only returns ErrServerClosed when the signal handler called
	// hs.Shutdown; the handler finishes the drain and then reports the
	// conventional exit code.
	code := <-done
	if err := rec.Close(); err != nil {
		fmt.Fprintln(stderr, "peppaxd: trace:", err)
	}
	fmt.Fprintln(stderr, "peppaxd: drained, bye")
	return code
}
