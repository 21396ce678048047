package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/cluster"
)

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	srv, err := NewServer(mustSnapshot(t, testMapping(t)), opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return srv
}

// logBuffer collects a JSON slog handler's records; it is safe for
// concurrent use.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// logger returns a logger writing JSON records into l.
func (l *logBuffer) logger() *slog.Logger { return slog.New(slog.NewJSONHandler(l, nil)) }

// lines returns the records written so far, one line each.
func (l *logBuffer) lines() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.buf.Len() == 0 {
		return nil
	}
	return strings.Split(strings.TrimSuffix(l.buf.String(), "\n"), "\n")
}

// records decodes every record written so far.
func (l *logBuffer) records(t *testing.T) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, line := range l.lines() {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// get performs a request against the server's handler and decodes the
// JSON body into out (when non-nil).
func do(t *testing.T, srv *Server, method, target string, out any) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, target, rec.Body.String(), err)
		}
	}
	return rec
}

func TestHandleAS(t *testing.T) {
	srv := newTestServer(t, Options{})
	var got struct {
		ASN uint32 `json:"asn"`
		Org struct {
			Name     string   `json:"name"`
			Size     int      `json:"size"`
			Features []string `json:"features"`
		} `json:"org"`
		Siblings []uint32 `json:"siblings"`
	}
	rec := do(t, srv, "GET", "/v1/as/3356", &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body)
	}
	if got.ASN != 3356 || got.Org.Name != "Lumen Technologies" || got.Org.Size != 3 {
		t.Fatalf("body = %+v", got)
	}
	if want := []uint32{209, 3356, 3549}; fmt.Sprint(got.Siblings) != fmt.Sprint(want) {
		t.Fatalf("siblings = %v, want %v", got.Siblings, want)
	}
	if len(got.Org.Features) != 2 {
		t.Fatalf("features = %v, want OID_W+R&R", got.Org.Features)
	}

	// "AS3356" spelling parses too.
	if rec := do(t, srv, "GET", "/v1/as/AS3356", nil); rec.Code != http.StatusOK {
		t.Fatalf("AS3356 status = %d", rec.Code)
	}
	if rec := do(t, srv, "GET", "/v1/as/99999999999", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("overflow ASN status = %d, want 400", rec.Code)
	}
	if rec := do(t, srv, "GET", "/v1/as/bogus", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bogus ASN status = %d, want 400", rec.Code)
	}
	if rec := do(t, srv, "GET", "/v1/as/4242424", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unmapped ASN status = %d, want 404", rec.Code)
	}
}

func TestHandleOrg(t *testing.T) {
	srv := newTestServer(t, Options{})
	lumen, _ := srv.Snapshot().Lookup(3356)
	var got orgJSON
	rec := do(t, srv, "GET", fmt.Sprintf("/v1/org/%d", lumen.ID), &got)
	if rec.Code != http.StatusOK || got.Name != "Lumen Technologies" {
		t.Fatalf("status %d body %+v", rec.Code, got)
	}
	if rec := do(t, srv, "GET", "/v1/org/999999", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("missing org status = %d, want 404", rec.Code)
	}
	if rec := do(t, srv, "GET", "/v1/org/xyz", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad org id status = %d, want 400", rec.Code)
	}
}

func TestHandleSearch(t *testing.T) {
	srv := newTestServer(t, Options{})
	var got struct {
		Query   string    `json:"query"`
		Matches []orgJSON `json:"matches"`
	}
	rec := do(t, srv, "GET", "/v1/search?name=claro", &got)
	if rec.Code != http.StatusOK || len(got.Matches) != 2 {
		t.Fatalf("status %d matches %+v", rec.Code, got.Matches)
	}
	rec = do(t, srv, "GET", "/v1/search?name=claro&limit=1", &got)
	if rec.Code != http.StatusOK || len(got.Matches) != 1 {
		t.Fatalf("limited search: status %d matches %+v", rec.Code, got.Matches)
	}
	if rec := do(t, srv, "GET", "/v1/search", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing name status = %d, want 400", rec.Code)
	}
	if rec := do(t, srv, "GET", "/v1/search?name=x&limit=-3", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("negative limit status = %d, want 400", rec.Code)
	}
}

func TestHandleStats(t *testing.T) {
	srv := newTestServer(t, Options{})
	var got struct {
		Orgs          int     `json:"orgs"`
		ASNs          int     `json:"asns"`
		Theta         float64 `json:"theta"`
		LargestOrg    int     `json:"largest_org"`
		Source        string  `json:"source"`
		SizeHistogram []struct {
			Size string `json:"size"`
			Orgs int    `json:"orgs"`
		} `json:"size_histogram"`
	}
	rec := do(t, srv, "GET", "/v1/stats", &got)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	st := srv.Snapshot().Stats()
	if got.Orgs != st.Orgs || got.ASNs != st.ASNs || got.Theta != st.Theta {
		t.Fatalf("stats body %+v, want %+v", got, st)
	}
	if got.Source != "test" || got.LargestOrg != 3 || len(got.SizeHistogram) != 3 {
		t.Fatalf("stats body %+v", got)
	}
}

func TestHandleHealthz(t *testing.T) {
	srv := newTestServer(t, Options{})
	var got struct {
		Status string `json:"status"`
	}
	rec := do(t, srv, "GET", "/healthz", &got)
	if rec.Code != http.StatusOK || got.Status != "ok" {
		t.Fatalf("healthz = %d %+v", rec.Code, got)
	}
}

func TestHandleMetrics(t *testing.T) {
	srv := newTestServer(t, Options{})
	do(t, srv, "GET", "/v1/as/3356", nil)
	do(t, srv, "GET", "/v1/as/3356", nil)
	do(t, srv, "GET", "/v1/stats", nil)
	rec := do(t, srv, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`borgesd_requests_total{endpoint="as"} 2`,
		`borgesd_requests_total{endpoint="stats"} 1`,
		`borgesd_request_latency_seconds_bucket{endpoint="as",le="+Inf"} 2`,
		`borgesd_request_latency_seconds_count{endpoint="as"} 2`,
		`borgesd_reloads_total{result="success"} 0`,
		`borgesd_snapshot_orgs 4`,
		`borgesd_snapshot_asns 7`,
		`borgesd_snapshot_theta`,
		`borgesd_snapshot_age_seconds`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// mappingSource wraps a mapping producer as the PreparedSource a full
// reload takes: each call indexes one fresh snapshot of its mapping.
func mappingSource(fn func(context.Context) (*cluster.Mapping, error)) PreparedSource {
	return func(ctx context.Context) (*Snapshot, error) {
		m, err := fn(ctx)
		if err != nil {
			return nil, err
		}
		return NewSnapshot(m, "test")
	}
}

// reloadableSource returns mappings from a swappable function.
type reloadableSource struct {
	fn func(context.Context) (*cluster.Mapping, error)
}

func TestHandleReload(t *testing.T) {
	// Second mapping: Lumen gains AS7 (a merger the reload must surface).
	grown := func(ctx context.Context) (*cluster.Mapping, error) {
		b := cluster.NewBuilder()
		b.AddUniverse(7, 209, 3356, 3549, 27995)
		b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{7, 209, 3356, 3549}, Source: cluster.FeatureOIDW})
		b.Add(cluster.SiblingSet{ASNs: []asnum.ASN{27995}, Source: cluster.FeatureOIDW})
		return b.Build(nil), nil
	}
	src := &reloadableSource{fn: grown}
	srv := newTestServer(t, Options{Prepared: mappingSource(func(ctx context.Context) (*cluster.Mapping, error) {
		return src.fn(ctx)
	})})

	// AS7 is absent before the reload.
	if rec := do(t, srv, "GET", "/v1/as/7", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("pre-reload AS7 = %d, want 404", rec.Code)
	}
	var got struct {
		Status string  `json:"status"`
		Orgs   int     `json:"orgs"`
		Theta  float64 `json:"theta"`
	}
	rec := do(t, srv, "POST", "/admin/reload", &got)
	if rec.Code != http.StatusOK || got.Status != "ok" || got.Orgs != 2 {
		t.Fatalf("reload = %d %+v", rec.Code, got)
	}
	if rec := do(t, srv, "GET", "/v1/as/7", nil); rec.Code != http.StatusOK {
		t.Fatalf("post-reload AS7 = %d, want 200", rec.Code)
	}

	// A failing source must leave the current snapshot serving and
	// count a reload failure.
	src.fn = func(ctx context.Context) (*cluster.Mapping, error) {
		return nil, fmt.Errorf("source exploded")
	}
	before := srv.Snapshot()
	if rec := do(t, srv, "POST", "/admin/reload", nil); rec.Code != http.StatusInternalServerError {
		t.Fatalf("failing reload = %d, want 500", rec.Code)
	}
	if srv.Snapshot() != before {
		t.Fatal("failed reload swapped the snapshot")
	}

	// An empty replacement mapping is rejected by validation.
	src.fn = func(ctx context.Context) (*cluster.Mapping, error) {
		return &cluster.Mapping{}, nil
	}
	if rec := do(t, srv, "POST", "/admin/reload", nil); rec.Code != http.StatusInternalServerError {
		t.Fatalf("empty-mapping reload = %d, want 500", rec.Code)
	}
	if srv.Snapshot() != before {
		t.Fatal("empty-mapping reload swapped the snapshot")
	}
	ok, failed := srv.metrics.reloadOK.Load(), srv.metrics.reloadErr.Load()
	if ok != 1 || failed != 2 {
		t.Fatalf("reload counters = %d ok / %d failed, want 1/2", ok, failed)
	}

	// GET is not allowed on the admin endpoint.
	if rec := do(t, srv, "GET", "/admin/reload", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload = %d, want 405", rec.Code)
	}
}

func TestReloadWithoutSource(t *testing.T) {
	srv := newTestServer(t, Options{})
	if rec := do(t, srv, "POST", "/admin/reload", nil); rec.Code != http.StatusNotImplemented {
		t.Fatalf("sourceless reload = %d, want 501", rec.Code)
	}
	if _, err := srv.Reload(context.Background()); err == nil {
		t.Fatal("Reload without source succeeded")
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	snap := mustSnapshot(t, testMapping(t))
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	srv, err := NewServer(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { errc <- srv.ServeListener(ctx, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("live request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP = %d", resp.StatusCode)
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("shutdown returned %v", err)
	}
}
