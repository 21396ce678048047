package apnic

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse exercises the APNIC population CSV parser on arbitrary
// input: it must either reject cleanly or produce a table that
// round-trips, writing the same bytes again once parsed back.
func FuzzParse(f *testing.F) {
	f.Add("asn,cc,users,pct_of_country\n3320,DE,24000000,32.5000\n3320,AT,1000000,12.0000\n5391,BA,0,0.0000\n")
	f.Add("asn,cc,users,pct_of_country\nAS3320,DE,1,1e2\n")
	f.Add("asn,cc,users,pct_of_country\n3320,DE,1,1\n3320,DE,2,2\n")
	f.Add("asn,cc,users,pct_of_country\n1,\"a,b\",1,NaN\n")
	f.Add("asn,cc,users,pct_of_country\n1,\" x\r\n\",-1,+Inf\n")
	f.Add("asn,cc,users,pct_of_country\n1,XX,9223372036854775808,1\n")
	f.Add("asn,cc,users,pct_of_country\n1,XX,1,0.00005\n")
	f.Add("bad,header,x,y\n")
	f.Add("asn,cc\n1,DE\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		tab, err := Parse(strings.NewReader(input), "fuzz")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, tab); err != nil {
			t.Fatalf("Write after successful Parse: %v", err)
		}
		tab2, err := Parse(bytes.NewReader(buf.Bytes()), "fuzz")
		if err != nil {
			t.Fatalf("reparse of own output failed: %v\noutput: %q", err, buf.String())
		}
		var buf2 bytes.Buffer
		if err := Write(&buf2, tab2); err != nil {
			t.Fatalf("Write after reparse: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("round trip changed the bytes:\nfirst:  %q\nsecond: %q", buf.String(), buf2.String())
		}
	})
}
