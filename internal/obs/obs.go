// Package obs is borgesd's metrics registry. A family is declared once,
// next to the code that counts it: a name, a Prometheus type, a help
// line and a function that emits the family's samples when /metrics is
// scraped. The registry keeps families in registration order and is
// the only code that writes the Prometheus text exposition format
// (version 0.0.4).
//
// Counting is left to the caller (an atomic, a snapshot field, the Go
// runtime); the registry reads it only at scrape time, so recording a
// value never touches the registry at all.
package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a family's Prometheus type.
type Kind string

// The family types /metrics uses.
const (
	Counter Kind = "counter"
	Gauge   Kind = "gauge"
	Summary Kind = "summary"
)

// Emit writes one sample of the family being collected. labels are
// name, value pairs, written in the order given.
type Emit func(v float64, labels ...string)

// Registry holds metric families in registration order. It is safe for
// concurrent use: families may be added while /metrics is scraped.
type Registry struct {
	mu       sync.Mutex
	families []family
}

type family struct {
	name, help string
	kind       Kind
	collect    func(Emit)
}

// Add registers a family whose samples collect emits at each scrape. A
// scrape in which collect emits nothing prints nothing for the family,
// HELP and TYPE included. Add panics on a name already registered.
func (r *Registry) Add(name string, kind Kind, help string, collect func(emit Emit)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.name == name {
			panic(fmt.Sprintf("obs: family %s registered twice", name))
		}
	}
	r.families = append(r.families, family{name: name, help: help, kind: kind, collect: collect})
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
		f.collect(func(v float64, labels ...string) {
			if first {
				first = false
				b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, helpEscaper.Replace(f.help), f.name, f.kind)
			}
			b = append(b, f.name...)
			sep := byte('{')
			for i := 0; i+1 < len(labels); i += 2 {
				b = fmt.Appendf(b, `%c%s="%s"`, sep, labels[i], labelEscaper.Replace(labels[i+1]))
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
