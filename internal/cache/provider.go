package cache

import (
	"context"
	"encoding/json"
	"fmt"

	"github.com/nu-aqualab/borges/internal/llm"
)

// Provider is an llm.Provider middleware over a Cache: completions are
// keyed by llm.RequestKey (model + sampling parameters + messages +
// image bytes) and served from the cache when present. A Provider
// shares its Cache — and therefore its singleflight dedup and optional
// disk tier — with the crawl stage and with every other pipeline run
// on the same Cache:
// both the NER extractor and the favicon classifier route through one
// instance, and a warm cache answers a full re-run without a single
// backend call.
type Provider struct {
	// Inner is the wrapped provider (required).
	Inner llm.Provider
	// Cache stores serialized responses (required).
	Cache *Cache
}

// Complete implements llm.Provider. Concurrent identical requests are
// collapsed to one backend call; errors are propagated and never
// cached.
func (p *Provider) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	fp, err := llm.RequestKey(req)
	if err != nil {
		return llm.Response{}, err
	}
	raw, err := p.Cache.GetOrFill(ctx, "llm:"+fp, func(ctx context.Context) ([]byte, error) {
		resp, err := p.Inner.Complete(ctx, req)
		if err != nil {
			return nil, err
		}
		return json.Marshal(resp)
	})
	if err != nil {
		return llm.Response{}, err
	}
	var resp llm.Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return llm.Response{}, fmt.Errorf("cache: decode cached completion: %w", err)
	}
	return resp, nil
}
