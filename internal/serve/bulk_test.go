package serve

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/admission"
	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
	"github.com/nu-aqualab/borges/internal/resilience"
)

// doBulk posts an NDJSON body to /v1/bulk and returns the recorder.
func doBulk(t *testing.T, srv *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/bulk", strings.NewReader(body))
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

// bulkLines splits an NDJSON response into its non-empty lines.
func bulkLines(t *testing.T, body string) []string {
	t.Helper()
	var lines []string
	for _, l := range strings.Split(body, "\n") {
		if strings.TrimSpace(l) != "" {
			lines = append(lines, l)
		}
	}
	return lines
}

func TestBulkBasic(t *testing.T) {
	srv := newTestServer(t, Options{})
	rec := doBulk(t, srv, "3356\nAS209\n\n{\"asn\": 27995}\n64512\nnot-an-asn\nasn3549\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	lines := bulkLines(t, rec.Body.String())
	if len(lines) != 6 {
		t.Fatalf("got %d output lines, want 6 (one per non-empty input):\n%s", len(lines), rec.Body.String())
	}
	// Hit lines must be byte-identical to the /v1/as responses.
	for i, asn := range map[int]string{0: "3356", 1: "209", 2: "27995", 5: "3549"} {
		single := do(t, srv, http.MethodGet, "/v1/as/"+asn, nil)
		if got, want := lines[i]+"\n", single.Body.String(); got != want {
			t.Errorf("line %d differs from GET /v1/as/%s:\n  bulk: %s\n  point: %s", i, asn, got, want)
		}
	}
	var miss struct {
		ASN   uint32 `json:"asn"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[3]), &miss); err != nil || miss.ASN != 64512 || miss.Error != "unmapped" {
		t.Errorf("unmapped line = %q (err %v), want asn 64512 error unmapped", lines[3], err)
	}
	var bad struct {
		Line  int64  `json:"line"`
		Error string `json:"error"`
	}
	// "not-an-asn" is the 5th non-empty input line.
	if err := json.Unmarshal([]byte(lines[4]), &bad); err != nil || bad.Line != 5 || bad.Error != "invalid input" {
		t.Errorf("malformed line = %q (err %v), want line 5 invalid input", lines[4], err)
	}
	if _, lines, errLines := srv.Metrics().BulkTotals(); lines != 6 || errLines != 2 {
		t.Errorf("bulk metrics = %d lines / %d errors, want 6 / 2", lines, errLines)
	}
}

func TestBulkJSONFormStrict(t *testing.T) {
	srv := newTestServer(t, Options{})
	for _, bad := range []string{
		`{"asn":"3356"}`,          // string value
		`{"asn":3356,"x":1}`,      // extra key
		`{"ASN":3356}`,            // wrong case
		`{asn:3356}`,              // not JSON
		`{"asn":}`,                // no value
		`{"asn":3356`,             // unterminated
		`[3356]`,                  // array
		`AS`, `ASN`, `--1`, `1e3`, // non-object junk
		`4294967296`, // > 32 bits
	} {
		rec := doBulk(t, srv, bad+"\n")
		lines := bulkLines(t, rec.Body.String())
		if len(lines) != 1 || !strings.Contains(lines[0], `"invalid input"`) {
			t.Errorf("input %q: got %q, want one invalid-input line", bad, rec.Body.String())
		}
	}
	// Whitespace-tolerant object form still parses.
	rec := doBulk(t, srv, "{ \"asn\" : 3356 }\n")
	lines := bulkLines(t, rec.Body.String())
	if len(lines) != 1 || !strings.Contains(lines[0], `"org":`) {
		t.Errorf("spaced JSON form: got %q, want a hit", rec.Body.String())
	}
}

func TestBulkLineCap(t *testing.T) {
	srv, err := NewServer(mustSnapshot(t, testMapping(t)), Options{BulkMaxLines: 3})
	if err != nil {
		t.Fatal(err)
	}
	rec := doBulk(t, srv, "3356\n3356\n3356\n3356\n3356\n")
	lines := bulkLines(t, rec.Body.String())
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 results + 1 terminal error:\n%s", len(lines), rec.Body.String())
	}
	if last := lines[len(lines)-1]; last != `{"error":"line cap exceeded"}` {
		t.Errorf("terminal line = %q", last)
	}
}

func TestBulkBodyTooLarge(t *testing.T) {
	srv, err := NewServer(mustSnapshot(t, testMapping(t)), Options{MaxBodyBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	rec := doBulk(t, srv, strings.Repeat("3356\n", 100))
	lines := bulkLines(t, rec.Body.String())
	if last := lines[len(lines)-1]; last != `{"error":"body too large"}` {
		t.Errorf("terminal line = %q, full body:\n%s", last, rec.Body.String())
	}
}

func TestBulkOverlongLine(t *testing.T) {
	srv := newTestServer(t, Options{})
	long := strings.Repeat("9", bulkReadBufSize+10)
	rec := doBulk(t, srv, long+"\n3356\n")
	lines := bulkLines(t, rec.Body.String())
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%.200s", len(lines), rec.Body.String())
	}
	if !strings.Contains(lines[0], `"invalid input"`) {
		t.Errorf("overlong line result = %q", lines[0])
	}
	if !strings.Contains(lines[1], `"org":`) {
		t.Errorf("line after overlong input should still resolve, got %q", lines[1])
	}
}

func TestBulkGzip(t *testing.T) {
	srv := newTestServer(t, Options{})
	body := strings.Repeat("3356\n", 200)
	plain := doBulk(t, srv, body)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/bulk", strings.NewReader(body))
	req.Header.Set("Accept-Encoding", "gzip")
	srv.Handler().ServeHTTP(rec, req)
	if enc := rec.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", enc)
	}
	if rec.Body.Len() >= plain.Body.Len() {
		t.Errorf("gzip body (%d bytes) not smaller than identity (%d bytes)", rec.Body.Len(), plain.Body.Len())
	}
	gr, err := gzip.NewReader(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := io.ReadAll(gr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded, plain.Body.Bytes()) {
		t.Error("gunzipped bulk body differs from identity body")
	}

	// q=0 must refuse gzip.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/v1/bulk", strings.NewReader(body))
	req.Header.Set("Accept-Encoding", "gzip;q=0")
	srv.Handler().ServeHTTP(rec, req)
	if enc := rec.Header().Get("Content-Encoding"); enc == "gzip" {
		t.Error("gzip applied despite q=0")
	}
}

func TestSearchGzip(t *testing.T) {
	srv := newTestServer(t, Options{})
	plain := do(t, srv, http.MethodGet, "/v1/search?name=claro", nil)

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/search?name=claro", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	srv.Handler().ServeHTTP(rec, req)
	if enc := rec.Header().Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", enc)
	}
	gr, err := gzip.NewReader(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := io.ReadAll(gr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded, plain.Body.Bytes()) {
		t.Error("gunzipped search body differs from identity body")
	}
}

// TestBulkDuringReload pins the request's snapshot: lines streamed
// before and after a mid-request hot reload must all be answered from
// the snapshot that was serving when the request began.
func TestBulkDuringReload(t *testing.T) {
	const n = 64
	v := 0
	srv, err := NewServer(mustSnapshot(t, variantMapping(0, n)), Options{
		Source: func(ctx context.Context) (m *cluster.Mapping, e error) {
			return variantMapping(v, n), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	oldSnap := srv.Snapshot()

	// Speak raw HTTP/1.1 chunked so the request body streams exactly
	// when we say (the stock transport buffers small chunked writes),
	// and the handler's flush-on-idle-input pushes each phase's results
	// back before the body ends.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/bulk HTTP/1.1\r\nHost: bulk-test\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	writeChunk := func(lo, hi int) {
		t.Helper()
		var sb strings.Builder
		for a := lo; a <= hi; a++ {
			fmt.Fprintf(&sb, "%d\n", a)
		}
		if _, err := fmt.Fprintf(conn, "%x\r\n%s\r\n", sb.Len(), sb.String()); err != nil {
			t.Fatalf("writing bulk chunk: %v", err)
		}
	}

	writeChunk(1, n/2)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading bulk response: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var lines []string
	readLines := func(want int) {
		t.Helper()
		for len(lines) < want && sc.Scan() {
			lines = append(lines, sc.Text())
		}
		if len(lines) < want {
			t.Fatalf("stream ended after %d lines, want %d (err %v)", len(lines), want, sc.Err())
		}
	}

	// Phase 1 results must arrive while the request is still open —
	// proof the handler has pinned its snapshot.
	readLines(n / 2)
	// Regroup every cluster and hot-reload while the request is open.
	v = 3
	if _, err := srv.Reload(context.Background()); err != nil {
		t.Fatalf("mid-request reload: %v", err)
	}
	if srv.Snapshot() == oldSnap {
		t.Fatal("reload did not swap the snapshot")
	}
	writeChunk(n/2+1, n)
	if _, err := io.WriteString(conn, "0\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	readLines(n)

	// Every line must match the ORIGINAL snapshot's rendering — no mix
	// of old and new groupings.
	buf := make([]byte, 0, 4096)
	for i, line := range lines {
		want, ok := oldSnap.AppendASBody(buf[:0], asnum.ASN(i+1))
		if !ok {
			t.Fatalf("AS%d missing from pinned snapshot", i+1)
		}
		if line+"\n" != string(want) {
			t.Fatalf("line %d served from the wrong snapshot:\n  got:  %s\n  want: %s", i, line, want)
		}
	}
	// A fresh request sees the new snapshot.
	rec := doBulk(t, srv, "1\n")
	newBody, _ := srv.Snapshot().AppendASBody(buf[:0], 1)
	if got := rec.Body.String(); got != string(newBody) {
		t.Errorf("post-reload bulk not served from new snapshot:\n  got:  %s  want: %s", got, newBody)
	}
}

// TestBulkSteadyStateAllocs is the 0 allocs/line guard: the per-line
// marginal allocation count of a bulk stream of hits must be zero.
// Fixed per-request overhead (MaxBytesReader, ResponseController) is
// allowed; anything scaling with line count is a regression.
func TestBulkSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race (sync.Pool drops)")
	}
	srv := newTestServer(t, Options{})
	measure := func(lines int) float64 {
		body := bytes.Repeat([]byte("3356\n"), lines)
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/bulk", rd)
		w := &discardResponseWriter{h: make(http.Header)}
		return testing.AllocsPerRun(50, func() {
			rd.Reset(body)
			req.Body = io.NopCloser(rd)
			srv.handleBulk(w, req)
		})
	}
	small, big := measure(512), measure(512+8192)
	perLine := (big - small) / 8192
	if perLine > 0.01 {
		t.Fatalf("bulk hot path allocates %.4f per line (%.1f @512 lines, %.1f @8704 lines), want 0",
			perLine, small, big)
	}
}

// discardResponseWriter is a header-only ResponseWriter whose body
// writes cost nothing, so allocation measurements see only the
// handler's own work.
type discardResponseWriter struct{ h http.Header }

func (w *discardResponseWriter) Header() http.Header         { return w.h }
func (w *discardResponseWriter) WriteHeader(int)             {}
func (w *discardResponseWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestBulkShedsWithRetryAfter drives the limiter to saturation and
// asserts a refused bulk request carries the Retry-After hint that
// resilience.ParseRetryAfter (and therefore the Go client's backoff)
// consumes — the full emit→parse round trip.
func TestBulkShedsWithRetryAfter(t *testing.T) {
	hold := make(chan struct{})
	held := make(chan struct{}, 8)
	srv := newTestServer(t, Options{
		Admission: &admission.Config{MaxInflight: 1, RetryAfter: 2 * time.Second},
		testHold: func(endpoint string) {
			if endpoint == "as" {
				held <- struct{}{}
				<-hold
			}
		},
	})
	// Pin one Point request in flight so the limiter is saturated.
	donec := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/as/3356", nil))
		donec <- rec
	}()
	<-held

	rec := doBulk(t, srv, "3356\n")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated bulk status = %d, want 503", rec.Code)
	}
	hint := resilience.ParseRetryAfter(rec.Header().Get("Retry-After"), time.Now())
	if hint != 2*time.Second {
		t.Errorf("parsed Retry-After = %v, want 2s (header %q)", hint, rec.Header().Get("Retry-After"))
	}
	if st := srv.Admission().Stats(); st.ShedBulk != 1 {
		t.Errorf("ShedBulk = %d, want 1", st.ShedBulk)
	}
	if got := srv.Metrics().Sheds("bulk"); got != 1 {
		t.Errorf("bulk endpoint sheds = %d, want 1", got)
	}
	metrics := do(t, srv, http.MethodGet, "/metrics", nil).Body.String()
	for _, want := range []string{
		`borgesd_admission_sheds_total{class="bulk"} 1`,
		"borgesd_bulk_sheds_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	close(hold)
	<-donec
	// With the slot free again, bulk proceeds.
	rec = doBulk(t, srv, "3356\n")
	if rec.Code != http.StatusOK {
		t.Errorf("post-release bulk status = %d, want 200", rec.Code)
	}
}

// bulkLineForms are /v1/bulk's documented input forms, one submatch
// each for the digits: a bare decimal, one with an AS or ASN prefix in
// any case, and {"asn":N} with ASCII spaces (space, tab, CR, LF)
// between its tokens.
var bulkLineForms = regexp.MustCompile(`^(?:(?i:asn?)?([0-9]+)|\{[ \t\r\n]*"asn"[ \t\r\n]*:[ \t\r\n]*([0-9]+)[ \t\r\n]*\})$`)

// FuzzParseBulkLine holds parseBulkLine, on any trimmed non-empty line,
// to the documented forms: it accepts exactly the lines bulkLineForms
// matches whose digits are a decimal that fits in 32 bits, and returns
// that number.
func FuzzParseBulkLine(f *testing.F) {
	for _, s := range []string{"3356", "AS3356", "as3356", "AsN3356", "ASN 3356", "{\"asn\":3356}",
		"{ \"asn\" :\t3356 \r}", "4294967295", "4294967296", "00000000004294967295", "AS", "ASNN1",
		"{\"asn\":\"3356\"}", "{\"asn\":3356,\"x\":1}", "{\"asn\":}", "-1", "+1", "3356}", "\xff"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		line = trimSpaceBytes(line)
		if len(line) == 0 {
			return // the handler skips blank lines
		}
		want, wantOK := uint64(0), false
		if m := bulkLineForms.FindSubmatch(line); m != nil {
			n, err := strconv.ParseUint(string(m[1])+string(m[2]), 10, 32)
			want, wantOK = n, err == nil
		}
		got, ok := parseBulkLine(line)
		if ok != wantOK || ok && uint64(got) != want {
			t.Fatalf("parseBulkLine(%q) = %d, %v; want %d, %v", line, got, ok, want, wantOK)
		}
	})
}
