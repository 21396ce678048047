package crawler

import (
	"context"
	"io"
)

// ctxBody makes a response body's reads abort promptly when the
// request context is cancelled. net/http only checks the context
// between reads it controls; a body served by a slow-loris peer (or
// any transport that isn't context-aware) can otherwise pin a reader
// until the transport's own timeout. A context.AfterFunc closes the
// underlying body on cancellation, which unblocks any in-flight Read;
// Close deregisters it, so a body holds no goroutine while it is read
// and leaks nothing once closed.
type ctxBody struct {
	ctx  context.Context
	rc   io.ReadCloser
	stop func() bool
}

// newCtxBody wraps rc so reads abort when ctx is cancelled.
func newCtxBody(ctx context.Context, rc io.ReadCloser) io.ReadCloser {
	return &ctxBody{ctx: ctx, rc: rc, stop: context.AfterFunc(ctx, func() { rc.Close() })}
}

// Read implements io.Reader. After cancellation the context's error is
// reported rather than whatever the forced close produced, so callers
// see the cause, not the mechanism.
func (b *ctxBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if err != nil && b.ctx.Err() != nil {
		return n, b.ctx.Err()
	}
	return n, err
}

// Close implements io.Closer and deregisters the cancellation hook.
func (b *ctxBody) Close() error {
	b.stop()
	return b.rc.Close()
}
