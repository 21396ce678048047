package client

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"github.com/nu-aqualab/borges/internal/resilience"
)

// recordedWatch is a /v1/watch stream as borgesd sent it to a
// subscriber of TestWatchClient's server (six ASNs): the hello event,
// then one reload with its delta.
const recordedWatch = "event: hello\nid: 0\ndata: {\"seq\":0,\"mode\":\"full\",\"content_hash\":\"9ccfdfc7afb6abf9ac099b4d746786d105e28b23f703bfebcba23dd75af98d91\",\"orgs\":3,\"asns\":6}\n\n" +
	"event: reload\nid: 1\ndata: {\"seq\":1,\"mode\":\"full\",\"content_hash\":\"eb9a1d34b9b65317b8bf376d6c81e05809868a34147084941cd837f7f36918fa\",\"orgs\":2,\"asns\":6,\"delta\":{\"removed\":[[1,2],[3,4],[5,6]],\"added\":[{\"name\":\"Org v1 #1\",\"asns\":[1,2,3],\"features\":[\"OID_W\"]},{\"name\":\"Org v1 #4\",\"asns\":[4,5,6],\"features\":[\"OID_W\"]}]}}\n\n"

// FuzzWatchStream holds the client's /v1/watch reader to its contract
// over arbitrary bytes and resume points: it never panics; events reach
// fn in strictly increasing sequence, each above the resume point, which
// ends at the last one delivered; and after a stream that ended cleanly
// on a line break, a reload event whose data is not JSON ends the
// stream with an error that is not transient, and a line past the
// scanner's limit ends it with a transient one.
func FuzzWatchStream(f *testing.F) {
	f.Add([]byte(recordedWatch), uint64(0))
	f.Add([]byte(recordedWatch), uint64(1))
	f.Add([]byte(": keepalive\n\n"+recordedWatch+"event: reload\ndata: {\"seq\":1}\n\nevent: reload\ndata: {\"seq\":3}\n\n"), uint64(0))
	f.Add([]byte("event: reload\r\ndata: {\"seq\":5}\r\n\r\nevent: reload\ndata: {\"seq\":2\n\n"), uint64(4))
	f.Fuzz(func(t *testing.T, stream []byte, since uint64) {
		const maxLine = 512
		run := func(stream []byte) error {
			last := since
			prev := since
			_, err := readWatch(bytes.NewReader(stream), maxLine, &last, func(ev *WatchEvent) error {
				if ev.Seq <= prev {
					t.Fatalf("event %d delivered after %d (resume point %d)", ev.Seq, prev, since)
				}
				prev = ev.Seq
				return nil
			})
			if last != prev {
				t.Fatalf("resume point %d after delivering up to %d", last, prev)
			}
			return err
		}
		if err := run(stream); err != nil || len(stream) > 0 && stream[len(stream)-1] != '\n' {
			return
		}
		stream = slices.Clip(stream)
		if err := run(append(stream, "\nevent: reload\ndata: {not json\n\n"...)); err == nil || resilience.IsTransient(err) {
			t.Fatalf("a reload event that is not JSON ended the stream with %v, want a lasting error", err)
		}
		if err := run(append(stream, strings.Repeat("x", maxLine+1)+"\n"...)); !resilience.IsTransient(err) {
			t.Fatalf("a line past the limit ended the stream with %v, want a transient error", err)
		}
	})
}
