package main

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// TestDaemonLifecycle boots the daemon on an ephemeral port, submits a job
// over HTTP, then delivers SIGTERM and checks the graceful drain: exit code
// 143, flushed shutdown message, job results identical to a fresh daemon's.
func TestDaemonLifecycle(t *testing.T) {
	var stderr lockedBuffer
	ready := make(chan string, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-slots", "2"}, &lockedBuffer{}, &stderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not start")
	}

	cl := &service.Client{Base: "http://" + addr}
	spec := &service.JobSpec{Kind: service.KindCampaign, Bench: "pathfinder", Trials: 60, Seed: 5}
	res, err := cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Trials != 60 {
		t.Fatalf("job ran %d trials, want 60", res.Counts.Trials)
	}
	again, err := cl.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Counts != res.Counts {
		t.Fatalf("repeat submission diverged: %+v vs %+v", again.Counts, res.Counts)
	}
	if !again.GoldenCached {
		t.Fatal("repeat submission did not hit the golden cache")
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 143 {
			t.Fatalf("exit code %d, want 143 (128+SIGTERM)\nstderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain\nstderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained, bye") {
		t.Fatalf("missing drain message in stderr:\n%s", stderr.String())
	}
}

// lockedBuffer makes the daemon's stderr writes safe to read from the test
// goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
