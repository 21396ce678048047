package peeringdb

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse exercises the PeeringDB dump parser on arbitrary input: it
// must either reject cleanly or produce a snapshot that round-trips,
// writing the same bytes again once parsed back.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add(`{"net":{"data":[{"id":2,"org_id":6,"asn":100},{"id":1,"org_id":5,"asn":100}]}}`)
	f.Add(`{"net":{"data":[{"id":1,"org_id":5,"asn":100},{"id":2,"org_id":6,"asn":100},{"id":1,"org_id":5,"asn":200}]}}`)
	f.Add(`{"org":{"data":[{"id":1,"name":"A"},{"id":1,"name":"B"}]}}`)
	f.Add(`{"net":{"data":[{"id":1,"asn":0,"org_id":1}]}}`)
	f.Add(`{"net":{"data":[{"id":1,"asn":1}]}}`)
	f.Add(`{"org":{"data":[{"id":-5}]}}`)
	f.Add(`null`)
	f.Add(`{]`)
	f.Fuzz(func(t *testing.T, input string) {
		s, err := Parse(strings.NewReader(input), "fuzz")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatalf("Write after successful Parse: %v", err)
		}
		s2, err := Parse(bytes.NewReader(buf.Bytes()), "fuzz")
		if err != nil {
			t.Fatalf("reparse of own output failed: %v\noutput: %q", err, buf.String())
		}
		var buf2 bytes.Buffer
		if err := Write(&buf2, s2); err != nil {
			t.Fatalf("Write after reparse: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("round trip changed the bytes:\nfirst:  %q\nsecond: %q", buf.String(), buf2.String())
		}
	})
}
