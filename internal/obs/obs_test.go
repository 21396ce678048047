package obs

import (
	"context"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	n, err := r.WriteTo(&sb)
	if err != nil || n != int64(sb.Len()) {
		t.Fatalf("WriteTo = %d, %v; wrote %d bytes", n, err, sb.Len())
	}
	return sb.String()
}

// TestWriteToFormat pins the exposition: families in registration
// order, HELP and TYPE before the first sample, labels in the order
// given, values in their shortest form (integers as integers), and
// nothing at all for a family whose collect emits no sample. A
// histogram series prints cumulative buckets with le last, ending at
// +Inf, then its sum and its count.
func TestWriteToFormat(t *testing.T) {
	var r Registry
	var hits atomic.Int64
	hits.Add(1 << 40)
	r.Counter("t_hits_total", "Hits.", Int64(&hits))
	r.Add("t_empty", Gauge, "Never emits.", func(Emit) {})
	r.Histogram("t_latency_seconds", "Latency.", []float64{0.000001, 0.0025}, func(emit EmitHistogram) {
		emit([]uint64{1, 0, 2}, 0.000012345, "endpoint", "as")
		emit([]uint64{0, 0, 0}, 0, "endpoint", "org")
	})
	r.Histogram("t_empty_seconds", "Never emits.", []float64{1}, func(EmitHistogram) {})
	r.Histogram("t_size", "Unlabelled.", []float64{1}, func(emit EmitHistogram) {
		emit([]uint64{2, 1}, 7)
	})
	r.Gauge("t_ratio", "A ratio.", func() float64 { return 0.75 })
	r.Add("t_info", Gauge, "Escapes: back\\slash and\nnewline.", func(emit Emit) {
		emit(1, "v", "a\"b\\c\nd")
	})
	want := `# HELP t_hits_total Hits.
# TYPE t_hits_total counter
t_hits_total 1099511627776
# HELP t_latency_seconds Latency.
# TYPE t_latency_seconds histogram
t_latency_seconds_bucket{endpoint="as",le="1e-06"} 1
t_latency_seconds_bucket{endpoint="as",le="0.0025"} 1
t_latency_seconds_bucket{endpoint="as",le="+Inf"} 3
t_latency_seconds_sum{endpoint="as"} 0.000012345
t_latency_seconds_count{endpoint="as"} 3
t_latency_seconds_bucket{endpoint="org",le="1e-06"} 0
t_latency_seconds_bucket{endpoint="org",le="0.0025"} 0
t_latency_seconds_bucket{endpoint="org",le="+Inf"} 0
t_latency_seconds_sum{endpoint="org"} 0
t_latency_seconds_count{endpoint="org"} 0
# HELP t_size Unlabelled.
# TYPE t_size histogram
t_size_bucket{le="1"} 2
t_size_bucket{le="+Inf"} 3
t_size_sum 7
t_size_count 3
# HELP t_ratio A ratio.
# TYPE t_ratio gauge
t_ratio 0.75
# HELP t_info Escapes: back\\slash and\nnewline.
# TYPE t_info gauge
t_info{v="a\"b\\c\nd"} 1
`
	if got := render(t, &r); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestOrDiscard: a nil logger becomes one that takes no record at any
// level; a logger passes through.
func TestOrDiscard(t *testing.T) {
	l := slog.New(slog.NewJSONHandler(io.Discard, nil))
	if OrDiscard(l) != l {
		t.Fatal("OrDiscard replaced a logger")
	}
	for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if OrDiscard(nil).Enabled(context.Background(), level) {
			t.Fatalf("OrDiscard(nil) takes %v records", level)
		}
	}
}

// TestAddTwicePanics: a second family under one name would make the
// exposition invalid, so registering it is a programming error.
func TestAddTwicePanics(t *testing.T) {
	var r Registry
	r.Gauge("t_g", "G.", func() float64 { return 1 })
	defer func() {
		if recover() == nil {
			t.Fatal("second registration of t_g did not panic")
		}
	}()
	r.Counter("t_g", "G again.", func() float64 { return 2 })
}

// TestAddWhileScraping registers families while others scrape (run it
// with -race): a scrape sees a prefix of the registrations, in order.
func TestAddWhileScraping(t *testing.T) {
	var r Registry
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			r.Gauge("t_g"+strings.Repeat("x", i), "G.", func() float64 { return float64(i) })
		}
	}()
	for i := 0; i < 100; i++ {
		k := 0
		for _, line := range strings.Split(render(t, &r), "\n") {
			if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
				if want := "t_g" + strings.Repeat("x", k) + " gauge"; name != want {
					t.Fatalf("scrape %d: family %d is %q, want %q", i, k, name, want)
				}
				k++
			}
		}
	}
	wg.Wait()
	if n := strings.Count(render(t, &r), "# TYPE "); n != 100 {
		t.Fatalf("%d families after 100 registrations", n)
	}
}
