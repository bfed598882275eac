// Package service implements peppaxd: a long-running HTTP/JSON job server
// for FI campaigns, compositional sensitivity estimates, and full PEPPA-X
// searches. Jobs run on a bounded worker pool with a FIFO queue and
// backpressure (429 + Retry-After when the queue is full); each job streams
// JSONL progress events over its response and ends with one JSON result
// document. A process-wide cache shares golden runs, checkpoint sets, and
// compose profiles across jobs, and flat campaigns split into one trial
// range per process — this one and each peer peppaxd — with bit-identical
// results.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/prog"
	"repro/internal/telemetry"
)

// Defaults for Config zero values.
const (
	DefaultSlots        = 2
	DefaultQueueCap     = 8
	DefaultGoldenCap    = 32
	DefaultProfileCap   = 256
	DefaultTrials       = 1000
	DefaultMaxJobTokens = int64(2_000_000_000)
)

// Config sizes a Server.
type Config struct {
	// Slots is the number of jobs running concurrently (<= 0: 2).
	Slots int
	// QueueCap bounds the jobs waiting for a slot (<= 0: 8; admission past
	// Slots+QueueCap is refused with 429 + Retry-After).
	QueueCap int
	// GoldenCap and ProfileCap are the LRU capacities of the golden-run and
	// compose-profile caches (<= 0: 32 and 256).
	GoldenCap  int
	ProfileCap int
	// Peers lists base URLs of peer peppaxd workers (http://host:port). A
	// flat campaign runs one contiguous trial range here and one on each
	// peer; adaptive, sensitivity and search jobs run here alone.
	Peers []string
	// MaxJobTokens is the default per-job dynamic-instruction budget
	// (<= 0: 2e9); JobSpec.MaxTokens overrides per job, negative spec value
	// means unlimited.
	MaxJobTokens int64
	// FaultModel is the default fault model for jobs that leave
	// JobSpec.FaultModel empty ("" = the single-bit-flip default).
	FaultModel string
	// WorkerOnly disables POST /jobs, leaving only /shard, /metrics and
	// /healthz — the shape a `peppaxd -worker` peer runs.
	WorkerOnly bool
	// Recorder receives service metrics and serves /metrics. Nil: a fresh
	// recorder with no trace sink.
	Recorder *telemetry.Recorder
}

// Server is one peppaxd process: HTTP handlers, the worker pool, and the
// cross-job cache.
type Server struct {
	cfg   Config
	rec   *telemetry.Recorder
	cache *workCache
	names map[string]bool

	// slots is the worker pool: acquiring a token is the FIFO queue
	// (channel receive order is arrival order under contention), pending
	// counts queued+running jobs for admission control.
	slots    chan struct{}
	pending  atomic.Int64
	inflight atomic.Int64
	jobSeq   atomic.Int64

	// drainMu serializes admission against Shutdown: handlers hold RLock
	// while checking draining and registering with jobs, so Shutdown's
	// Lock-then-Wait cannot miss a job that passed the draining check.
	drainMu  sync.RWMutex
	draining bool
	jobs     sync.WaitGroup

	client *http.Client

	// hold, when non-nil, blocks each job at the start of execution until
	// the channel yields — a test hook for filling the pool deterministically.
	hold chan struct{}
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.Slots <= 0 {
		cfg.Slots = DefaultSlots
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.GoldenCap <= 0 {
		cfg.GoldenCap = DefaultGoldenCap
	}
	if cfg.ProfileCap <= 0 {
		cfg.ProfileCap = DefaultProfileCap
	}
	if cfg.MaxJobTokens == 0 {
		cfg.MaxJobTokens = DefaultMaxJobTokens
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = telemetry.New(telemetry.Options{})
	}
	names := make(map[string]bool)
	for _, n := range prog.Names() {
		names[n] = true
	}
	s := &Server{
		cfg:    cfg,
		rec:    rec,
		cache:  newWorkCache(cfg.GoldenCap, cfg.ProfileCap),
		names:  names,
		slots:  make(chan struct{}, cfg.Slots),
		client: &http.Client{},
	}
	s.publishQueueMetrics()
	return s
}

// Handler returns the server's HTTP mux:
//
//	POST /jobs    submit a job, stream JSONL events + final result (unless WorkerOnly)
//	POST /shard   run one trial range of a flat campaign, return its tally
//	GET  /metrics Prometheus text exposition
//	GET  /healthz liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	if !s.cfg.WorkerOnly {
		mux.HandleFunc("/jobs", s.handleJobs)
	}
	mux.HandleFunc("/shard", s.handleShard)
	mux.Handle("/metrics", s.rec.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.isDraining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Shutdown stops admitting jobs and waits for inflight + queued jobs to
// drain, or for ctx to expire. Streaming jobs observe their own request
// contexts, so a hung client cannot stall a bounded shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) isDraining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// admit registers a job for admission: it fails when the server is draining
// or the queue is full, and otherwise guarantees Shutdown waits for the job.
// The caller must call the returned release exactly once.
func (s *Server) admit() (release func(), status int, err error) {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("server is draining")
	}
	if s.pending.Add(1) > int64(s.cfg.Slots+s.cfg.QueueCap) {
		s.pending.Add(-1)
		s.rec.Count("service.jobs.rejected", 1)
		s.publishQueueMetrics()
		return nil, http.StatusTooManyRequests, fmt.Errorf("queue full (%d running + %d queued)", s.cfg.Slots, s.cfg.QueueCap)
	}
	s.jobs.Add(1)
	s.publishQueueMetrics()
	return func() {
		s.pending.Add(-1)
		s.publishQueueMetrics()
		s.jobs.Done()
	}, 0, nil
}

// handleJobs is the job submission endpoint: validate, queue, execute,
// stream.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, "bad job spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.normalize(&spec); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	release, status, err := s.admit()
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, err.Error(), status)
		return
	}
	defer release()
	s.rec.Count("service.jobs.accepted", 1)
	id := s.jobSeq.Add(1)

	// Queue for a slot (FIFO under contention). The client can abandon the
	// queue by disconnecting.
	select {
	case s.slots <- struct{}{}:
	case <-r.Context().Done():
		s.rec.Count("service.jobs.abandoned", 1)
		return
	}
	defer func() { <-s.slots }()
	s.inflight.Add(1)
	s.publishQueueMetrics()
	defer func() {
		s.inflight.Add(-1)
		s.publishQueueMetrics()
	}()

	ew := newEventWriter(w)
	ew.event("job.start", map[string]any{
		"id": id, "kind": spec.Kind, "bench": spec.Bench,
		"trials": spec.Trials, "seed": spec.Seed,
	})

	if s.hold != nil {
		select {
		case <-s.hold:
		case <-r.Context().Done():
			return
		}
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	budget := spec.MaxTokens
	if budget == 0 {
		budget = s.cfg.MaxJobTokens
	}
	meter := &tokenMeter{budget: budget, cancel: cancel}

	// Per-job telemetry recorder: its sorted JSONL trace flushes into the
	// event stream (as trace.* lines) ahead of the final result document.
	rec := telemetry.New(telemetry.Options{Sink: ew.traceWriter()})
	start := time.Now()
	res, err := s.runJob(ctx, &spec, meter, ew, rec)
	rec.Close()
	if err != nil {
		s.rec.Count("service.jobs.failed", 1)
		ew.event("job.error", map[string]any{"id": id, "error": err.Error()})
		return
	}
	s.rec.Count("service.jobs.completed", 1)
	s.rec.Count("service.tokens.spent", res.Tokens)
	ew.result(id, time.Since(start), res)
}

// normalize validates a spec and fills server-side defaults.
func (s *Server) normalize(spec *JobSpec) error {
	switch spec.Kind {
	case KindCampaign, KindSensitivity, KindSearch:
	case "":
		spec.Kind = KindCampaign
	default:
		return fmt.Errorf("unknown job kind %q (want %q, %q or %q)", spec.Kind, KindCampaign, KindSensitivity, KindSearch)
	}
	if !s.names[spec.Bench] {
		known := prog.Names()
		sort.Strings(known)
		return fmt.Errorf("unknown benchmark %q (known: %v)", spec.Bench, known)
	}
	if spec.Kind != KindSearch {
		in, err := resolveInput(s.cache.bench(spec.Bench).b, spec.Input)
		if err != nil {
			return err
		}
		spec.Input = in
	}
	if spec.Trials <= 0 {
		spec.Trials = DefaultTrials
	}
	if spec.FaultModel == "" {
		spec.FaultModel = s.cfg.FaultModel
	}
	spec.Workers = clampWorkers(spec.Workers)
	_, err := spec.fiOptions()
	return err
}

// clampWorkers bounds a wire worker count by the server's GOMAXPROCS.
// Results are identical at every worker count, and every extra trial
// machine starts with its own memory, so a larger value buys nothing and
// an absurd one would exhaust the server.
func clampWorkers(n int) int {
	return min(n, runtime.GOMAXPROCS(0))
}

// resolveInput applies the input rule /jobs and /shard share: an empty
// input is the benchmark's reference input, and any other input must hold
// one value per argument.
func resolveInput(b *prog.Benchmark, input []float64) ([]float64, error) {
	if len(input) == 0 {
		return b.RefInput(), nil
	}
	if len(input) != len(b.Args) {
		return nil, fmt.Errorf("%s takes %d args, got %d", b.Name, len(b.Args), len(input))
	}
	return input, nil
}

// publishQueueMetrics refreshes the pool gauges.
func (s *Server) publishQueueMetrics() {
	inflight := s.inflight.Load()
	queued := s.pending.Load() - inflight
	if queued < 0 {
		queued = 0
	}
	s.rec.Gauge("service.queue.depth", queued)
	s.rec.Gauge("service.inflight", inflight)
	s.rec.Gauge("service.slots", int64(s.cfg.Slots))
}

// publishCacheMetrics refreshes the cross-job cache gauges.
func (s *Server) publishCacheMetrics() {
	gs := s.cache.goldenStats()
	ps := s.cache.profileStats()
	s.rec.Gauge("service.cache.golden.hits", gs.Hits)
	s.rec.Gauge("service.cache.golden.misses", gs.Misses)
	s.rec.Gauge("service.cache.golden.entries", int64(gs.Len))
	s.rec.Gauge("service.cache.profile.hits", ps.Hits)
	s.rec.Gauge("service.cache.profile.misses", ps.Misses)
}

// eventWriter serializes a job's JSONL event stream: one JSON object per
// line, flushed per line so clients see progress live.
type eventWriter struct {
	mu sync.Mutex
	w  http.ResponseWriter
	fl http.Flusher

	wroteHeader bool
}

func newEventWriter(w http.ResponseWriter) *eventWriter {
	fl, _ := w.(http.Flusher)
	return &eventWriter{w: w, fl: fl}
}

func (ew *eventWriter) header() {
	if !ew.wroteHeader {
		ew.wroteHeader = true
		ew.w.Header().Set("Content-Type", "application/x-ndjson")
		ew.w.WriteHeader(http.StatusOK)
	}
}

// event writes one {"ev": ev, ...fields} line.
func (ew *eventWriter) event(ev string, fields map[string]any) {
	doc := make(map[string]any, len(fields)+1)
	for k, v := range fields {
		doc[k] = v
	}
	doc["ev"] = ev
	line, err := json.Marshal(doc)
	if err != nil {
		return
	}
	ew.mu.Lock()
	defer ew.mu.Unlock()
	ew.header()
	ew.w.Write(append(line, '\n'))
	if ew.fl != nil {
		ew.fl.Flush()
	}
}

// result writes the final {"ev": "job.result", ...} line.
func (ew *eventWriter) result(id int64, elapsed time.Duration, res *JobResult) {
	ew.event("job.result", map[string]any{
		"id": id, "elapsed_ms": elapsed.Milliseconds(), "result": res,
	})
}

// traceWriter adapts the event stream into an io.Writer for a per-job
// telemetry Recorder: each flushed JSONL trace line becomes a
// {"ev": "trace", "line": ...} event, keeping the stream one-JSON-per-line.
func (ew *eventWriter) traceWriter() *traceWriter { return &traceWriter{ew: ew} }

type traceWriter struct {
	ew  *eventWriter
	buf []byte
}

func (tw *traceWriter) Write(p []byte) (int, error) {
	tw.buf = append(tw.buf, p...)
	for {
		i := -1
		for j, b := range tw.buf {
			if b == '\n' {
				i = j
				break
			}
		}
		if i < 0 {
			return len(p), nil
		}
		line := tw.buf[:i]
		if len(line) > 0 {
			var raw json.RawMessage = append([]byte(nil), line...)
			tw.ew.event("trace", map[string]any{"line": raw})
		}
		tw.buf = tw.buf[i+1:]
	}
}
