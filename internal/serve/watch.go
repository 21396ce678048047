package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nu-aqualab/borges/internal/mapdiff"
	"github.com/nu-aqualab/borges/internal/obs"
)

// WatchEvent is one /v1/watch stream event: a snapshot swap described
// by the mapdiff edit script between the old and new mappings. Seq
// numbers are monotonically increasing per server process; a client
// that reconnects with ?since=<last seen seq> replays anything it
// missed (up to the hub's replay ring depth).
type WatchEvent struct {
	Seq         uint64         `json:"seq"`
	Mode        string         `json:"mode"`
	ContentHash string         `json:"content_hash"`
	Orgs        int            `json:"orgs"`
	ASNs        int            `json:"asns"`
	Delta       *mapdiff.Delta `json:"delta,omitempty"`
}

const (
	// watchRingSize bounds the replay ring: a reconnecting client can
	// resume across this many missed reloads before it must treat the
	// stream as reset (re-fetch a full snapshot).
	watchRingSize = 64
	// maxWatchSubscribers caps concurrent /v1/watch streams; beyond it
	// new subscriptions are refused with 503 + Retry-After.
	maxWatchSubscribers = 1024
	// watchHeartbeat is the keep-alive comment interval, frequent
	// enough to beat the server's idle/write timeouts and any
	// middlebox between.
	watchHeartbeat = 15 * time.Second
)

// errWatchFull and errWatchClosed are subscription refusals.
var (
	errWatchFull   = errors.New("serve: watch subscriber cap reached")
	errWatchClosed = errors.New("serve: watch hub shut down")
)

// watchSub is one subscriber: a bounded event queue drained by its
// handler goroutine. The hub closes ch to end the stream — on
// shutdown, or when the queue overflows (slow consumer).
type watchSub struct {
	ch      chan *WatchEvent
	evicted bool
}

// watchHub fans reload events out to /v1/watch subscribers. Publishing
// never blocks: each subscriber has a bounded queue, and one that is
// full when an event arrives is evicted (its channel closed) rather
// than allowed to stall the snapshot swap or accumulate unbounded
// backlog. The hub keeps a small replay ring so reconnecting clients
// can resume by sequence number.
type watchHub struct {
	buffer int // per-subscriber queue depth

	mu     sync.Mutex
	seq    uint64
	subs   map[*watchSub]struct{}
	ring   []*WatchEvent // last watchRingSize events, oldest first
	closed bool

	// everSub lets swapWith skip the ComputeDelta diff pass entirely
	// until the first watcher ever connects: flipped once, never
	// cleared, read without the lock.
	everSub   atomic.Bool
	evictions atomic.Int64
}

func newWatchHub(buffer int) *watchHub {
	return &watchHub{buffer: buffer, subs: make(map[*watchSub]struct{})}
}

// active reports whether publish would do any work — some watcher has
// connected at some point and the hub is not shut down.
func (h *watchHub) active() bool {
	return h.everSub.Load()
}

// subscribe registers a new stream. The returned replay slice holds
// the ring events with Seq > since, in order; live events published
// after the call arrive on sub.ch, with no gap or overlap relative to
// the replay (both are decided under the hub lock). seq is the hub's
// current sequence at subscription time, for the stream's hello event.
func (h *watchHub) subscribe(since uint64) (sub *watchSub, replay []*WatchEvent, seq uint64, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, nil, 0, errWatchClosed
	}
	if len(h.subs) >= maxWatchSubscribers {
		return nil, nil, 0, errWatchFull
	}
	sub = &watchSub{ch: make(chan *WatchEvent, h.buffer)}
	h.subs[sub] = struct{}{}
	h.everSub.Store(true)
	for _, ev := range h.ring {
		if ev.Seq > since {
			replay = append(replay, ev)
		}
	}
	return sub, replay, h.seq, nil
}

// unsubscribe removes a departing subscriber. Safe to call after an
// eviction or hub shutdown (both already removed it).
func (h *watchHub) unsubscribe(sub *watchSub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, sub)
}

// publish assigns the next sequence number to the swap described by
// (next, delta) and delivers it to every subscriber whose queue has
// room; the rest are evicted. Called from swapWith with the reload
// latch held, so sequence numbers and ring order match publication
// order exactly.
func (h *watchHub) publish(next *Snapshot, delta *mapdiff.Delta) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	st := next.Stats()
	ev := &WatchEvent{
		Seq:         h.seq,
		Mode:        next.LoadMode(),
		ContentHash: next.ContentHash(),
		Orgs:        st.Orgs,
		ASNs:        st.ASNs,
		Delta:       delta,
	}
	if len(h.ring) == watchRingSize {
		copy(h.ring, h.ring[1:])
		h.ring[len(h.ring)-1] = ev
	} else {
		h.ring = append(h.ring, ev)
	}
	for sub := range h.subs {
		select {
		case sub.ch <- ev:
		default:
			// Slow consumer: its queue is full after `buffer` unread
			// reloads. Cut it loose — the closed channel ends its
			// stream, and the client reconnects with ?since= to
			// resume from the ring.
			sub.evicted = true
			close(sub.ch)
			delete(h.subs, sub)
			h.evictions.Add(1)
		}
	}
}

// close ends every stream (subscribers see their channel close after
// draining anything already queued) and refuses new subscriptions.
// Called at shutdown before the HTTP server drains.
func (h *watchHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for sub := range h.subs {
		close(sub.ch)
		delete(h.subs, sub)
	}
}

// subscribers returns the current stream count (for tests/metrics).
func (h *watchHub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// handleWatch serves GET /v1/watch: a Server-Sent Events stream of
// snapshot changes. The stream opens with a `hello` event carrying the
// current sequence number and content hash, then emits one `reload`
// event per snapshot swap whose data is the WatchEvent JSON (including
// the full mapdiff edit script). `?since=N` replays missed events from
// the hub's ring, so a client that reconnects after a drop resumes
// without a gap as long as fewer than watchRingSize reloads passed.
//
// Watch streams are admitted as Critical — they hold no limiter slot
// (a subscription is idle between reloads) — and are instead bounded
// by maxWatchSubscribers.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	var since uint64
	if ss := r.URL.Query().Get("since"); ss != "" {
		n, err := strconv.ParseUint(ss, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid ?since=%q", ss)
			return
		}
		since = n
	}
	sub, replay, seq, err := s.watch.subscribe(since)
	if err != nil {
		writeRetryableError(w, http.StatusServiceUnavailable, time.Second, "%v", err)
		return
	}
	defer s.watch.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)

	rc := http.NewResponseController(w)
	flush := func() bool {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		// Keep extending the connection's write deadline while the
		// stream makes progress; errors mean the server-wide bound
		// applies (or the writer has no deadline support at all).
		_ = rc.SetWriteDeadline(s.opts.now().Add(2 * s.opts.RequestTimeout))
		return true
	}

	snap := s.snap.Load()
	hello := &WatchEvent{
		Seq:         seq,
		Mode:        snap.LoadMode(),
		ContentHash: snap.ContentHash(),
		Orgs:        snap.Stats().Orgs,
		ASNs:        snap.Stats().ASNs,
	}
	if err := writeSSE(w, "hello", hello); err != nil {
		return
	}
	for _, ev := range replay {
		if err := writeSSE(w, "reload", ev); err != nil {
			return
		}
	}
	flush()

	heartbeat := time.NewTicker(watchHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				// Evicted or hub shutdown: end the stream cleanly so
				// the client reconnects with ?since=.
				return
			}
			if err := writeSSE(w, "reload", ev); err != nil {
				return
			}
			flush()
		case <-heartbeat.C:
			if _, err := w.Write([]byte(": keepalive\n\n")); err != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one Server-Sent Event with the event name, the
// sequence number as the SSE id, and the event JSON as data.
func writeSSE(w http.ResponseWriter, event string, ev *WatchEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	var buf []byte
	buf = append(buf, "event: "...)
	buf = append(buf, event...)
	buf = append(buf, "\nid: "...)
	buf = strconv.AppendUint(buf, ev.Seq, 10)
	buf = append(buf, "\ndata: "...)
	buf = append(buf, data...)
	buf = append(buf, '\n', '\n')
	_, err = w.Write(buf)
	return err
}

// register declares the hub's families.
func (h *watchHub) register(reg *obs.Registry) {
	reg.Gauge("borgesd_watch_subscribers", "Connected /v1/watch streams.", func() float64 {
		return float64(h.subscribers())
	})
	reg.Counter("borgesd_watch_evictions_total", "Slow /v1/watch subscribers evicted for a full event queue.", obs.Int64(&h.evictions))
}

// WatchSubscribers returns the number of connected /v1/watch streams.
func (s *Server) WatchSubscribers() int { return s.watch.subscribers() }
