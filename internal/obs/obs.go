// Package obs is borgesd's metrics registry (and OrDiscard, which makes
// a nil logger silent). A family is declared once, next to the code
// that counts it: a name, a Prometheus type, a help line and a function
// that emits the family's samples when /metrics is scraped. The
// registry keeps families in registration order and is the only code
// that writes the Prometheus text exposition format (version 0.0.4).
//
// Counting is left to the caller (an atomic, a snapshot field, the Go
// runtime); the registry reads it only at scrape time, so recording a
// value never touches the registry at all.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a family's Prometheus type.
type Kind string

// The family types /metrics uses.
const (
	Counter   Kind = "counter"
	Gauge     Kind = "gauge"
	Histogram Kind = "histogram"
)

// Emit writes one sample of the family being collected. labels are
// name, value pairs, written in the order given.
type Emit func(v float64, labels ...string)

// EmitHistogram writes one series of the histogram family being
// collected: counts[i] observations fell at or below bound i and above
// the one before (the last above every bound), summing to sum.
type EmitHistogram func(counts []uint64, sum float64, labels ...string)

// Registry holds metric families in registration order. It is safe for
// concurrent use: families may be added while /metrics is scraped.
type Registry struct {
	mu       sync.Mutex
	families []family
}

type family struct {
	name, help string
	kind       Kind
	write      func(sample) // emits the family's samples at a scrape
}

// sample writes one line: the family's name with suffix, labels and v.
type sample func(suffix string, v float64, labels []string)

// Add registers a counter or gauge family whose samples collect emits
// at each scrape. A scrape in which collect emits nothing prints
// nothing for the family, HELP and TYPE included. Add panics on a name
// already registered.
func (r *Registry) Add(name string, kind Kind, help string, collect func(emit Emit)) {
	r.add(family{name, help, kind, func(write sample) {
		collect(func(v float64, labels ...string) { write("", v, labels) })
	}})
}

// Histogram registers a histogram family whose buckets end at bounds,
// ascending, plus one above them all. A series prints as cumulative
// _bucket samples ending at le="+Inf", then _sum and _count; each le
// value is formatted once, here, as the Prometheus Go client does.
func (r *Registry) Histogram(name, help string, bounds []float64, collect func(emit EmitHistogram)) {
	les := make([]string, len(bounds)+1)
	for i, b := range bounds {
		les[i] = strconv.FormatFloat(b, 'g', -1, 64)
	}
	les[len(bounds)] = "+Inf"
	r.add(family{name, help, Histogram, func(write sample) {
		collect(func(counts []uint64, sum float64, labels ...string) {
			bucket := append(labels[:len(labels):len(labels)], "le", "") // a copy
			var n uint64
			for i, c := range counts {
				n += c
				bucket[len(bucket)-1] = les[i]
				write("_bucket", float64(n), bucket)
			}
			write("_sum", sum, labels)
			write("_count", float64(n), labels)
		})
	}})
}

func (r *Registry) add(f family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.families {
		if g.name == f.name {
			panic(fmt.Sprintf("obs: family %s registered twice", f.name))
		}
	}
	r.families = append(r.families, f)
}

// Counter registers a family of one unlabelled counter read from value.
func (r *Registry) Counter(name, help string, value func() float64) {
	r.Add(name, Counter, help, func(emit Emit) { emit(value()) })
}

// Gauge registers a family of one unlabelled gauge read from value.
func (r *Registry) Gauge(name, help string, value func() float64) {
	r.Add(name, Gauge, help, func(emit Emit) { emit(value()) })
}

// Int64 reads an atomic counter as a sample value, for Counter and
// Gauge.
func Int64(v *atomic.Int64) func() float64 {
	return func() float64 { return float64(v.Load()) }
}

// WriteTo writes every family's samples in the Prometheus text format.
// Collection runs outside the registry's lock. A value prints in the
// fewest digits that read back as the same float64, so an integer
// prints as one.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	families := r.families[:len(r.families):len(r.families)]
	r.mu.Unlock()
	var b []byte
	for _, f := range families {
		first := true
		f.write(func(suffix string, v float64, labels []string) {
			if first {
				first = false
				b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, helpEscaper.Replace(f.help), f.name, f.kind)
			}
			b = append(b, f.name...)
			b = append(b, suffix...)
			sep := byte('{')
			for i := 0; i+1 < len(labels); i += 2 {
				b = append(b, sep)
				b = append(b, labels[i]...)
				b = append(b, `="`...)
				b = append(b, labelEscaper.Replace(labels[i+1])...)
				b = append(b, '"')
				sep = ','
			}
			if sep == ',' {
				b = append(b, '}')
			}
			b = append(b, ' ')
			b = strconv.AppendFloat(b, v, 'f', -1, 64)
			b = append(b, '\n')
		})
	}
	n, err := w.Write(b)
	return int64(n), err
}

// The text format's escapes: a label value escapes backslash, double
// quote and line feed; a help line escapes backslash and line feed.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// OrDiscard returns l, or for nil a logger that drops every record, as
// slog.DiscardHandler does from Go 1.24.
func OrDiscard(l *slog.Logger) *slog.Logger {
	if l == nil {
		return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
	}
	return l
}
