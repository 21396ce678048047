package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/serve"
)

// TestNothingOutlivesShutdown runs a distributor with a generation
// ring, a -snapshot-out file and a short scrub interval, and a replica
// following it, both logging through one JSON handler. It holds a
// /v1/watch stream open, drives lookups, a search, a bulk stream and a
// reload, lets a scrub cycle run on both, then cancels every context
// and waits for both servers to return. Afterwards the process holds
// no more goroutines or file descriptors than before, no temporary or
// partial artifact is left, and every log line is valid JSON.
func TestNothingOutlivesShutdown(t *testing.T) {
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	dir := t.TempDir()
	var log lockedBuffer
	logger := slog.New(slog.NewJSONHandler(&log, nil))

	ring, err := serve.NewGenerationRing(filepath.Join(dir, "gens"), 3, nil, logger)
	if err != nil {
		t.Fatal(err)
	}
	var ver atomic.Int64
	ver.Store(1)
	dist, err := NewDistributor(mustSnapshot(t, fleetMapping(t, 1)), serve.Options{
		Prepared: func(context.Context) (*serve.Snapshot, error) {
			return serve.NewSnapshot(fleetMapping(t, int(ver.Load())), "test")
		},
		Logger:        logger,
		Generations:   ring,
		SnapshotOut:   filepath.Join(dir, "out.snapbin"),
		ScrubInterval: 10 * time.Millisecond,
	}, DistributorOptions{Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	distLn := listen()
	distBase := "http://" + distLn.Addr().String()
	distDone := make(chan error, 1)
	go func() { distDone <- dist.ServeListener(ctx, distLn) }()

	opts := replicaOpts("r1", distBase, dir)
	opts.Logger = logger
	opts.Serve = serve.Options{Logger: logger, ScrubInterval: 10 * time.Millisecond}
	rep, err := NewReplica(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	repLn := listen()
	repBase := "http://" + repLn.Addr().String()
	repDone, runDone := make(chan error, 1), make(chan error, 1)
	go func() { repDone <- rep.Server().ServeListener(ctx, repLn) }()
	go func() { runDone <- rep.Run(ctx) }()

	hc := &http.Client{Transport: &http.Transport{}}
	call := func(method, url, body string) string {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s = %d, %v: %s", method, url, resp.StatusCode, err, b)
		}
		return string(b)
	}

	watch, err := hc.Get(distBase + "/v1/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	events := bufio.NewReader(watch.Body)
	if line, err := events.ReadString('\n'); err != nil || line != "event: hello\n" {
		t.Fatalf("watch stream opened with %q, %v", line, err)
	}

	for _, base := range []string{distBase, repBase} {
		call("GET", base+"/v1/as/3356", "")
		call("GET", base+"/v1/search?name=claro", "")
		call("POST", base+"/v1/bulk", "3356\n27995\nnot-an-asn\n")
	}
	ver.Store(2)
	call("POST", distBase+"/admin/reload", "")
	waitFor(t, 5*time.Second, "the replica to serve the reload", func() bool {
		return rep.Server().Snapshot().ContentHash() == dist.Manifest().ContentHash
	})
	for _, base := range []string{distBase, repBase} {
		waitFor(t, 5*time.Second, "a scrub cycle at "+base, func() bool {
			return !strings.Contains(call("GET", base+"/metrics", ""), "borgesd_scrub_cycles_total 0\n")
		})
	}

	// The test's own idle connections go first: a server's shutdown
	// waits five seconds for a connection that sent no request.
	hc.CloseIdleConnections()
	cancel()
	for _, done := range []chan error{distDone, repDone, runDone} {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("a server did not return after cancellation")
		}
	}
	if _, err := io.Copy(io.Discard, events); err != nil {
		t.Fatalf("watch stream: %v", err)
	}
	watch.Body.Close()
	hc.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		var stacks bytes.Buffer
		_ = pprof.Lookup("goroutine").WriteTo(&stacks, 1)
		t.Errorf("%d goroutines after shutdown, %d before:\n%s", n, goroutines, stacks.String())
	}
	if fds >= 0 {
		for openFDs() > fds && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := openFDs(); n > fds {
			t.Errorf("%d file descriptors open after shutdown, %d before", n, fds)
		}
	}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && (strings.Contains(d.Name(), ".tmp-") || strings.HasSuffix(d.Name(), ".part")) {
			t.Errorf("left behind: %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Errorf("log line is not JSON: %s", line)
		}
	}
	if !strings.Contains(log.String(), `"msg":"shutdown"`) {
		t.Errorf("no shutdown record in %d log lines", len(lines))
	}
}

// openFDs counts this process's open file descriptors, or returns -1
// where /proc/self/fd cannot be read.
func openFDs() int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(entries)
}

// lockedBuffer is a bytes.Buffer safe for concurrent use.
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
