package asrank

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse exercises the AS-Rank CSV parser on arbitrary input: it
// must either reject cleanly or produce a ranking that round-trips,
// writing the same bytes again once parsed back.
func FuzzParse(f *testing.F) {
	f.Add("rank,asn,cone_size\n1,3356,40000\n2,174,35000\n10,209,9000\n")
	f.Add("rank,asn,cone_size\n1,AS3356,1\n")
	f.Add("rank,asn,cone_size\n1,1.10,1\n")
	f.Add("rank,asn,cone_size\n1,7,1\n2,7,1\n")
	f.Add("rank,asn,cone_size\n1,1,1\n1,2,1\n")
	f.Add("rank,asn,cone_size\n0,1,1\n")
	f.Add("rank,asn,cone_size\n+3,01,-5\n")
	f.Add("bad,header,x\n")
	f.Add(`"rank","asn","cone_size"` + "\r\n1,2,3\r\n")
	f.Add("rank,asn\n1,2\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		r, err := Parse(strings.NewReader(input), "fuzz")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, r); err != nil {
			t.Fatalf("Write after successful Parse: %v", err)
		}
		r2, err := Parse(bytes.NewReader(buf.Bytes()), "fuzz")
		if err != nil {
			t.Fatalf("reparse of own output failed: %v\noutput: %q", err, buf.String())
		}
		var buf2 bytes.Buffer
		if err := Write(&buf2, r2); err != nil {
			t.Fatalf("Write after reparse: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("round trip changed the bytes:\nfirst:  %q\nsecond: %q", buf.String(), buf2.String())
		}
	})
}
