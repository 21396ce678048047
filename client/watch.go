package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/nu-aqualab/borges/internal/resilience"
	"github.com/nu-aqualab/borges/internal/serve"
)

// WatchEvent is one snapshot-change event from /v1/watch: the new
// snapshot's identity plus the mapdiff edit script that produced it.
type WatchEvent = serve.WatchEvent

// Watch follows the server's /v1/watch change stream, invoking fn for
// every reload event in order. It reconnects after disconnects and
// server restarts, resuming from the last delivered sequence number
// via ?since= so no event is delivered twice and none is silently
// skipped while the server's replay ring covers the gap. Watch
// returns when ctx is cancelled (ctx.Err()) or fn returns a non-nil
// error (that error).
//
// since is the sequence number to resume after; 0 starts from the
// next change.
func (c *Client) Watch(ctx context.Context, since uint64, fn func(ev *WatchEvent) error) error {
	sleep := c.cfg.sleepFn
	if sleep == nil {
		sleep = resilience.Sleep
	}
	last := since
	fails := 0 // consecutive reconnects without a delivered event
	var reconnects int64
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		delivered, err := c.watchOnce(ctx, last, fn, &last)
		if err != nil && ctx.Err() == nil {
			if fnErr, ok := err.(*watchCallbackError); ok {
				return fnErr.err
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// Disconnected (server restart, eviction, network). Back off
		// under the retry policy — exponential from RetryBaseDelay,
		// capped, jittered so a fleet of replicas spreads out, honoring
		// any Retry-After the refusal carried — and resume. A stream
		// that delivered events restarts the schedule: the server was
		// healthy, the drop is fresh.
		if delivered {
			fails = 0
		}
		fails++
		reconnects++
		if c.cfg.OnReconnect != nil {
			c.cfg.OnReconnect(reconnects, err)
		}
		if serr := sleep(ctx, c.policy.Backoff(fails, err)); serr != nil {
			return serr
		}
	}
}

// watchCallbackError wraps an error returned by the subscriber's fn,
// distinguishing "stop watching" from transport failures.
type watchCallbackError struct{ err error }

func (e *watchCallbackError) Error() string { return e.err.Error() }

// watchOnce runs one /v1/watch connection until it drops, delivering
// events to fn and advancing *last. delivered reports whether any
// event arrived (used to reset the reconnect backoff).
func (c *Client) watchOnce(ctx context.Context, since uint64, fn func(ev *WatchEvent) error, last *uint64) (delivered bool, err error) {
	url := c.cfg.BaseURL + "/v1/watch"
	if since > 0 {
		url += "?since=" + strconv.FormatUint(since, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	c.setAuth(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return false, resilience.MarkTransient(err)
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return false, err
	}
	return readWatch(resp.Body, watchLineLimit, last, fn)
}

// watchLineLimit bounds one line of a /v1/watch stream.
const watchLineLimit = 64 << 20

// readWatch delivers the reload events of a /v1/watch stream to fn in
// order until the stream ends, skipping any at or below *last and
// advancing *last past each one delivered; delivered reports whether
// fn saw any. A reload event whose data does not decode ends the
// stream with an error, fn's error ends it with a *watchCallbackError,
// and a line longer than maxLine ends it with a transient error. A
// clean EOF returns nil.
func readWatch(r io.Reader, maxLine int, last *uint64, fn func(ev *WatchEvent) error) (delivered bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, min(64*1024, maxLine)), maxLine)
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			// Blank line terminates one SSE event.
			if event == "reload" && len(data) > 0 {
				var ev WatchEvent
				if err := json.Unmarshal(data, &ev); err != nil {
					return delivered, fmt.Errorf("client: bad watch event: %w", err)
				}
				if ev.Seq > *last {
					if err := fn(&ev); err != nil {
						return delivered, &watchCallbackError{err: err}
					}
					*last = ev.Seq
					delivered = true
				}
			}
			event, data = "", nil
		case len(line) > 7 && line[:7] == "event: ":
			event = line[7:]
		case len(line) > 6 && line[:6] == "data: ":
			data = append([]byte(nil), line[6:]...)
		default:
			// id: lines and ": keepalive" comments need no handling —
			// the sequence number rides inside the event JSON.
		}
	}
	if err := sc.Err(); err != nil {
		return delivered, resilience.MarkTransient(err)
	}
	return delivered, nil // clean EOF: server shut the stream down
}
