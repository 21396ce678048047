package llm

import (
	"context"

	"github.com/nu-aqualab/borges/internal/resilience"
)

// Resilient routes completions through a resilience.Executor: retries
// under the executor's policy, per-model circuit breaking, and counted
// attempts/denials that feed the run report. It is the LLM path's one
// retry layer: core.Run wraps every provider in it, so providers
// themselves do not retry.
type Resilient struct {
	// Inner is the wrapped provider.
	Inner Provider
	// Exec supplies the retry policy, breakers, and counters. A nil
	// Exec passes calls straight through.
	Exec *resilience.Executor
	// Key derives the breaker key for a request; nil keys per model
	// ("llm:<model>"), matching how providers rate-limit.
	Key func(Request) string
}

// Complete implements Provider.
func (r *Resilient) Complete(ctx context.Context, req Request) (Response, error) {
	if r.Exec == nil {
		return r.Inner.Complete(ctx, req)
	}
	key := "llm:" + req.Model
	if r.Key != nil {
		key = r.Key(req)
	}
	var resp Response
	err := r.Exec.Do(ctx, key, func(ctx context.Context) error {
		var cerr error
		resp, cerr = r.Inner.Complete(ctx, req)
		return cerr
	})
	if err != nil {
		return Response{}, err
	}
	return resp, nil
}
