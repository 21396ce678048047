package serve

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"

	"github.com/nu-aqualab/borges/internal/asnum"
)

// Bulk endpoint defaults: a request may carry up to defaultBulkMaxLines
// input lines inside defaultMaxBodyBytes of body. Both are tunable via
// Options (borgesd -bulk-max-lines / -max-body-bytes).
const (
	defaultBulkMaxLines = 1 << 20
	defaultMaxBodyBytes = 64 << 20
	defaultWatchBuffer  = 64
)

// bulkFlushThreshold is how many response bytes accumulate before the
// bulk handler pushes a chunk to the client. Large enough to amortize
// syscalls over hundreds of lines, small enough that the client sees
// steady progress and the buffer stays cache-resident.
const bulkFlushThreshold = 32 << 10

// bulkReadBufSize is the pooled bufio.Reader size for bulk request
// bodies; it also caps a single input line (a valid line is an ASN or
// a tiny JSON object — anything longer is malformed by construction).
const bulkReadBufSize = 64 << 10

// bulkReaderPool recycles the request-body readers and bulkWriterPool
// the response chunk buffers, so a steady stream of bulk requests
// allocates nothing per request, let alone per line.
var bulkReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, bulkReadBufSize) },
}

var bulkWriterPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, bulkFlushThreshold+4<<10)
		return &b
	},
}

// handleBulk serves POST /v1/bulk: NDJSON in, NDJSON out. Each
// non-empty input line is one lookup — either a bare ASN ("3356",
// "AS3356") or a JSON object {"asn":3356} — and produces exactly one
// output line, in input order:
//
//	{"asn":3356,"org":{...},"siblings":[...]}   mapped
//	{"asn":64512,"error":"unmapped"}            valid but unknown
//	{"line":7,"error":"invalid input"}          malformed
//
// Malformed lines never abort the stream; the caller keeps its
// line-for-line correspondence and decides what to do. The handler
// loads the serving snapshot once and answers every line from it, so a
// reload landing mid-request cannot produce a response that mixes two
// mappings. Hit lines are rendered from the clusters into a pooled
// buffer: zero allocations per line in steady state. The body is
// streamed — never buffered whole — and bounded by
// Options.MaxBodyBytes and Options.BulkMaxLines; hitting either cap
// emits a terminal error line and ends the response.
func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request) {
	// One snapshot for the whole request: consistency across a
	// mid-request reload.
	snap := s.snap.Load()

	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	br := bulkReaderPool.Get().(*bufio.Reader)
	br.Reset(body)
	bp := bulkWriterPool.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		br.Reset(nil) // drop the body reference before pooling
		bulkReaderPool.Put(br)
		*bp = buf[:0]
		bulkWriterPool.Put(bp)
	}()

	gz := negotiateGzip(w, r)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)

	// The http.Server's Read/WriteTimeout cover the whole connection;
	// a legitimately long stream must extend them as it progresses.
	// Probed once: not every ResponseWriter supports deadlines
	// (httptest.ResponseRecorder), and the unsupported path allocates
	// an error per call — failing to extend just means the server-wide
	// bound applies.
	rc := http.NewResponseController(w)
	// Without full duplex, the HTTP/1.1 server drains the rest of the
	// request body before letting the first response bytes out — which
	// would block a streaming round-trip and buffer the body we promise
	// not to buffer. Ignored errors here and below: a ResponseWriter
	// that supports neither (httptest.ResponseRecorder) just keeps the
	// default half-duplex, bounded behaviour.
	_ = rc.EnableFullDuplex()
	canDeadline := rc.SetReadDeadline(s.opts.now().Add(s.opts.RequestTimeout)) == nil
	if canDeadline {
		_ = rc.SetWriteDeadline(s.opts.now().Add(2 * s.opts.RequestTimeout))
	}

	var out io.Writer = w
	if gz != nil {
		out = gz
		defer finishGzip(w, gz)
	}
	flusher, _ := w.(http.Flusher)

	// flushChunk pushes the accumulated response lines to the client.
	// It reports false when the client has gone away.
	flushChunk := func() bool {
		if len(buf) == 0 {
			return true
		}
		if _, werr := out.Write(buf); werr != nil {
			return false
		}
		buf = buf[:0]
		if gz != nil {
			_ = gz.Flush()
		}
		if flusher != nil {
			flusher.Flush()
		}
		if canDeadline {
			_ = rc.SetReadDeadline(s.opts.now().Add(s.opts.RequestTimeout))
			_ = rc.SetWriteDeadline(s.opts.now().Add(2 * s.opts.RequestTimeout))
		}
		return true
	}

	var lines, errLines int64
	terminal := "" // non-empty: emit `{"error":...}` and stop reading
	lineCap := s.opts.BulkMaxLines

scan:
	for {
		// About to block on the client's next chunk: push what we have
		// so a slowly streaming caller sees results as it writes.
		if br.Buffered() == 0 && len(buf) > 0 && !flushChunk() {
			break scan
		}
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			trimmed := trimSpaceBytes(line)
			if errors.Is(err, bufio.ErrBufferFull) {
				// Line longer than the read buffer: no valid input is.
				// Report it, then discard to the newline.
				lines++
				errLines++
				buf = appendLineError(buf, lines, "invalid input")
				for errors.Is(err, bufio.ErrBufferFull) {
					_, err = br.ReadSlice('\n')
				}
			} else if len(trimmed) > 0 {
				lines++
				if lines > int64(lineCap) {
					terminal = "line cap exceeded"
					break scan
				}
				a, ok := parseBulkLine(trimmed)
				if !ok {
					errLines++
					buf = appendLineError(buf, lines, "invalid input")
				} else if buf, ok = snap.AppendASBody(buf, a); !ok {
					errLines++
					buf = appendUnmapped(buf, a)
				}
			}
			if len(buf) >= bulkFlushThreshold && !flushChunk() {
				break scan // client went away
			}
		}
		if err != nil {
			if err != io.EOF && terminal == "" {
				// MaxBytesReader or a broken connection; only the
				// former can still reach the client.
				var mbe *http.MaxBytesError
				if errors.As(err, &mbe) {
					terminal = "body too large"
				}
			}
			break
		}
	}
	if terminal != "" {
		buf = append(buf, `{"error":`...)
		buf = strconv.AppendQuote(buf, terminal)
		buf = append(buf, '}', '\n')
	}
	if len(buf) > 0 {
		_, _ = out.Write(buf)
		buf = buf[:0]
	}
	s.metrics.bulkLines.Add(lines)
	s.metrics.bulkErrLines.Add(errLines)
}

// appendUnmapped renders the per-line miss object for a valid but
// unknown ASN.
func appendUnmapped(dst []byte, a asnum.ASN) []byte {
	dst = append(dst, `{"asn":`...)
	dst = strconv.AppendUint(dst, uint64(a), 10)
	return append(dst, `,"error":"unmapped"}`+"\n"...)
}

// appendLineError renders the per-line error object for input that
// could not be parsed at all (keyed by line number — there is no ASN
// to echo back).
func appendLineError(dst []byte, line int64, msg string) []byte {
	dst = append(dst, `{"line":`...)
	dst = strconv.AppendInt(dst, line, 10)
	dst = append(dst, `,"error":`...)
	dst = strconv.AppendQuote(dst, msg)
	return append(dst, '}', '\n')
}

// trimSpaceBytes trims ASCII whitespace without allocating (the input
// is a slice into the read buffer).
func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n'
}

// parseBulkLine parses one trimmed, non-empty bulk input line: a bare
// decimal ASN, an "AS"/"ASN"-prefixed one, or the JSON object form
// {"asn":N}. Byte-level parsing keeps the per-line hot path free of
// string conversions and encoding/json.
func parseBulkLine(b []byte) (asnum.ASN, bool) {
	if b[0] == '{' {
		return parseBulkJSON(b)
	}
	// Optional AS / ASN prefix, any case.
	if len(b) >= 2 && (b[0] == 'A' || b[0] == 'a') && (b[1] == 'S' || b[1] == 's') {
		b = b[2:]
		if len(b) > 0 && (b[0] == 'N' || b[0] == 'n') {
			b = b[1:]
		}
	}
	return parseASNDigits(b)
}

// parseBulkJSON accepts exactly the documented object form
// {"asn":N}, with arbitrary whitespace between tokens. Anything else
// — extra keys, string values, nesting — is malformed input, reported
// per line rather than parsed leniently.
func parseBulkJSON(b []byte) (asnum.ASN, bool) {
	i := 1 // past '{'
	i = skipSpace(b, i)
	const key = `"asn"`
	if i+len(key) > len(b) || string(b[i:i+len(key)]) != key {
		return 0, false
	}
	i = skipSpace(b, i+len(key))
	if i >= len(b) || b[i] != ':' {
		return 0, false
	}
	i = skipSpace(b, i+1)
	j := i
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	if j == i {
		return 0, false
	}
	a, ok := parseASNDigits(b[i:j])
	if !ok {
		return 0, false
	}
	j = skipSpace(b, j)
	if j != len(b)-1 || b[j] != '}' {
		return 0, false
	}
	return a, true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && asciiSpace(b[i]) {
		i++
	}
	return i
}

// parseASNDigits parses a non-empty all-digit slice as a 32-bit ASN,
// leading zeros included, as strconv.ParseUint(s, 10, 32) does.
func parseASNDigits(b []byte) (asnum.ASN, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if n = n*10 + uint64(c-'0'); n > 1<<32-1 {
			return 0, false
		}
	}
	return asnum.ASN(n), true
}
