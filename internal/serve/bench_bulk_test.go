// Benchmarks for the /v1/bulk streaming surface. The headline
// comparison is BenchmarkBulkThroughput (one NDJSON request resolving
// the whole 32768-network universe) against
// BenchmarkBulkSequentialBaseline (the same lookups as individual
// GET /v1/as round-trips): both report lines_per_sec into
// BENCH_serve.json, where the ratio is the bulk speedup.
//
//	go test -run=NONE -bench='Bulk' -benchtime=1x ./internal/serve/
package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// benchBulkServer builds an n-network snapshot and serves it over a
// real HTTP listener.
func benchBulkServer(b *testing.B, n int) (*Server, *httptest.Server) {
	b.Helper()
	snap, err := NewSnapshot(benchBuilder(n).Build(benchNamer), "bench")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(snap, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	return srv, ts
}

// benchBulkBody renders lines NDJSON input lines cycling through ASNs
// 1..n.
func benchBulkBody(lines, n int) []byte {
	var buf bytes.Buffer
	buf.Grow(8 * lines)
	for i := 0; i < lines; i++ {
		buf.Write(strconv.AppendInt(buf.AvailableBuffer(), int64(i%n+1), 10))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// postBulk ships one prebuilt body and drains the response, returning
// the on-wire response size.
func postBulk(b *testing.B, client *http.Client, url string, body []byte, gzip bool) int64 {
	b.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/bulk", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	} else {
		// Pin identity encoding: the default transport would otherwise
		// negotiate and transparently decompress.
		req.Header.Set("Accept-Encoding", "identity")
	}
	resp, err := client.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("bulk status = %d", resp.StatusCode)
	}
	wire, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	return wire
}

// BenchmarkBulkThroughput resolves the whole 32768-network universe in
// one /v1/bulk request per op, over a real HTTP connection.
func BenchmarkBulkThroughput(b *testing.B) {
	const n = 32768
	_, ts := benchBulkServer(b, n)
	body := benchBulkBody(n, n)
	client := ts.Client()
	var wire int64
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire = postBulk(b, client, ts.URL, body, false)
	}
	b.StopTimer()
	linesPerSec := float64(n) * float64(b.N) / b.Elapsed().Seconds()
	recordBench(b, map[string]float64{
		"networks":      n,
		"lines":         n,
		"lines_per_sec": linesPerSec,
		"bytes_on_wire": float64(wire),
	})
}

// BenchmarkBulkSequentialBaseline is what /v1/bulk replaces: the same
// lookups as one GET /v1/as round-trip each, on a keep-alive
// connection. One op = one lookup, so lines_per_sec is ops/sec.
func BenchmarkBulkSequentialBaseline(b *testing.B) {
	const n = 32768
	_, ts := benchBulkServer(b, n)
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(ts.URL + "/v1/as/" + strconv.Itoa(i%n+1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("as status = %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	recordBench(b, map[string]float64{
		"networks":      n,
		"lines_per_sec": float64(b.N) / b.Elapsed().Seconds(),
	})
}

// BenchmarkBulk1M is the acceptance-scale cell: one million input
// lines per request, cycling the 32768-network universe — the shape of
// an operator enriching a full routing table dump.
func BenchmarkBulk1M(b *testing.B) {
	const n = 32768
	const lines = 1 << 20
	_, ts := benchBulkServer(b, n)
	body := benchBulkBody(lines, n)
	client := ts.Client()
	var wire int64
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire = postBulk(b, client, ts.URL, body, false)
	}
	b.StopTimer()
	recordBench(b, map[string]float64{
		"networks":      n,
		"lines":         lines,
		"lines_per_sec": float64(lines) * float64(b.N) / b.Elapsed().Seconds(),
		"bytes_on_wire": float64(wire),
	})
}

// BenchmarkBulkGzip measures the compression trade on the 32768-line
// request: wire bytes drop several-fold, CPU per line rises. Compare
// bytes_on_wire with BenchmarkBulkThroughput's.
func BenchmarkBulkGzip(b *testing.B) {
	const n = 32768
	_, ts := benchBulkServer(b, n)
	body := benchBulkBody(n, n)
	// A bare client: the httptest default would decompress and hide
	// the wire size.
	client := &http.Client{}
	var wire int64
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire = postBulk(b, client, ts.URL, body, true)
	}
	b.StopTimer()
	recordBench(b, map[string]float64{
		"networks":      n,
		"lines":         n,
		"lines_per_sec": float64(n) * float64(b.N) / b.Elapsed().Seconds(),
		"bytes_on_wire": float64(wire),
	})
}
