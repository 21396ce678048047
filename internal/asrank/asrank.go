// Package asrank models CAIDA's AS-Rank dataset: a ranking of ASes by
// customer-cone size. The paper uses AS-Rank (snapshot of 2024-07-01) to
// study how Borges reshapes transit organizations across the top 100,
// 1,000, and 10,000 ranked networks (§6.1, Figure 8).
package asrank

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"github.com/nu-aqualab/borges/internal/asnum"
)

// Entry is one ranked AS.
type Entry struct {
	Rank int
	ASN  asnum.ASN
	// ConeSize is the number of ASNs in the customer cone (including
	// the AS itself).
	ConeSize int
}

// Ranking is a parsed AS-Rank snapshot. Ranks are 1-based and unique.
type Ranking struct {
	// Date is the snapshot date in YYYYMMDD form.
	Date string

	entries []Entry
	byASN   map[asnum.ASN]int // index into entries
	ranks   map[int]bool      // ranks taken
}

// NewRanking returns an empty ranking.
func NewRanking(date string) *Ranking {
	return &Ranking{Date: date, byASN: make(map[asnum.ASN]int), ranks: make(map[int]bool)}
}

// Add appends one entry. Duplicate ASNs or ranks are an error.
func (r *Ranking) Add(e Entry) error {
	if e.Rank <= 0 {
		return fmt.Errorf("asrank: non-positive rank %d for %v", e.Rank, e.ASN)
	}
	if _, dup := r.byASN[e.ASN]; dup {
		return fmt.Errorf("asrank: duplicate ASN %v", e.ASN)
	}
	if r.ranks[e.Rank] {
		return fmt.Errorf("asrank: duplicate rank %d for %v", e.Rank, e.ASN)
	}
	r.ranks[e.Rank] = true
	r.byASN[e.ASN] = len(r.entries)
	r.entries = append(r.entries, e)
	return nil
}

// Len returns the number of ranked ASes.
func (r *Ranking) Len() int { return len(r.entries) }

// RankOf returns the rank of a, or 0 if unranked.
func (r *Ranking) RankOf(a asnum.ASN) int {
	i, ok := r.byASN[a]
	if !ok {
		return 0
	}
	return r.entries[i].Rank
}

// BestRank returns the best (lowest) rank across a set of ASNs, or 0 if
// none are ranked. Organizations are ranked by their highest-ranked ASN
// (§6.1: "relative to its highest-ranked ASN").
func (r *Ranking) BestRank(asns []asnum.ASN) int {
	best := 0
	for _, a := range asns {
		if rk := r.RankOf(a); rk != 0 && (best == 0 || rk < best) {
			best = rk
		}
	}
	return best
}

// Top returns the n best-ranked entries in rank order (fewer if the
// ranking is smaller).
func (r *Ranking) Top(n int) []Entry {
	out := r.Entries()
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Entries returns all entries in rank order.
func (r *Ranking) Entries() []Entry {
	out := append([]Entry(nil), r.entries...)
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

var header = []string{"rank", "asn", "cone_size"}

// Parse reads the CSV form (header "rank,asn,cone_size").
func Parse(rd io.Reader, date string) (*Ranking, error) {
	cr := csv.NewReader(bufio.NewReader(rd))
	cr.FieldsPerRecord = len(header)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("asrank: read: %w", err)
	}
	if len(rows) == 0 {
		return NewRanking(date), nil
	}
	if rows[0][0] != header[0] {
		return nil, fmt.Errorf("asrank: missing header, got %q", rows[0])
	}
	r := NewRanking(date)
	for i, row := range rows[1:] {
		rank, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("asrank: row %d: rank: %w", i+2, err)
		}
		a, err := asnum.Parse(row[1])
		if err != nil {
			return nil, fmt.Errorf("asrank: row %d: %w", i+2, err)
		}
		cone, err := strconv.Atoi(row[2])
		if err != nil {
			return nil, fmt.Errorf("asrank: row %d: cone: %w", i+2, err)
		}
		if err := r.Add(Entry{Rank: rank, ASN: a, ConeSize: cone}); err != nil {
			return nil, fmt.Errorf("asrank: row %d: %w", i+2, err)
		}
	}
	return r, nil
}

// Write serializes the ranking as CSV in rank order.
func Write(w io.Writer, r *Ranking) error {
	if err := WriteHeader(w); err != nil {
		return err
	}
	return WriteRows(w, r)
}

// WriteHeader emits only the CSV header row, so a streaming producer
// can write it once and then append WriteRows output chunk by chunk.
func WriteHeader(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("asrank: write header: %w", err)
	}
	cw.Flush()
	return cw.Error()
}

// WriteRows emits only the data rows, in rank order.
func WriteRows(w io.Writer, r *Ranking) error {
	cw := csv.NewWriter(w)
	for _, e := range r.Entries() {
		row := []string{
			strconv.Itoa(e.Rank),
			strconv.FormatUint(uint64(e.ASN), 10),
			strconv.Itoa(e.ConeSize),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("asrank: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
