package asrank

import (
	"bytes"
	"strings"
	"testing"

	"github.com/nu-aqualab/borges/internal/asnum"
)

func sampleRanking(t *testing.T) *Ranking {
	t.Helper()
	r := NewRanking("20240701")
	entries := []Entry{
		{Rank: 1, ASN: 3356, ConeSize: 40000},
		{Rank: 2, ASN: 174, ConeSize: 35000},
		{Rank: 3, ASN: 1299, ConeSize: 33000},
		{Rank: 10, ASN: 209, ConeSize: 9000},
	}
	for _, e := range entries {
		if err := r.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestRankQueries(t *testing.T) {
	r := sampleRanking(t)
	if got := r.RankOf(174); got != 2 {
		t.Errorf("RankOf(174) = %d", got)
	}
	if got := r.RankOf(99999); got != 0 {
		t.Errorf("RankOf(unranked) = %d", got)
	}
	if got := r.BestRank([]asnum.ASN{209, 1299}); got != 3 {
		t.Errorf("BestRank = %d, want 3", got)
	}
	if got := r.BestRank([]asnum.ASN{424242}); got != 0 {
		t.Errorf("BestRank(unranked set) = %d", got)
	}
	if got := r.BestRank(nil); got != 0 {
		t.Errorf("BestRank(nil) = %d", got)
	}
	top := r.Top(2)
	if len(top) != 2 || top[0].ASN != 3356 || top[1].ASN != 174 {
		t.Errorf("Top(2) = %v", top)
	}
	if got := r.Top(100); len(got) != 4 {
		t.Errorf("Top(100) = %d entries", len(got))
	}
}

func TestAddErrors(t *testing.T) {
	r := sampleRanking(t)
	if err := r.Add(Entry{Rank: 99, ASN: 3356}); err == nil {
		t.Error("duplicate ASN should fail")
	}
	if err := r.Add(Entry{Rank: 1, ASN: 5511}); err == nil {
		t.Error("duplicate rank should fail")
	}
	if err := r.Add(Entry{Rank: 0, ASN: 5511}); err == nil {
		t.Error("zero rank should fail")
	}
	if err := r.Add(Entry{Rank: -1, ASN: 5511}); err == nil {
		t.Error("negative rank should fail")
	}
}

func TestRoundTrip(t *testing.T) {
	r := sampleRanking(t)
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(bytes.NewReader(buf.Bytes()), "20240701")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != r.Len() {
		t.Fatalf("round trip changed length: %d vs %d", back.Len(), r.Len())
	}
	for _, e := range r.Entries() {
		if back.RankOf(e.ASN) != e.Rank {
			t.Errorf("rank of %v changed", e.ASN)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bad,header,x\n",
		"rank,asn,cone_size\nx,1,1\n",
		"rank,asn,cone_size\n1,bad,1\n",
		"rank,asn,cone_size\n1,1,bad\n",
		"rank,asn,cone_size\n1,7,1\n2,7,1\n", // duplicate ASN
		"rank,asn,cone_size\n1,1,1\n1,2,1\n", // duplicate rank
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c), "x"); err == nil {
			t.Errorf("Parse(%q) should fail", c)
		}
	}
	if r, err := Parse(strings.NewReader(""), "x"); err != nil || r.Len() != 0 {
		t.Errorf("empty input: %v %v", r, err)
	}
}
