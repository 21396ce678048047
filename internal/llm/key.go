package llm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// RequestKey derives a stable content-addressed fingerprint for a
// request — the hex SHA-256 over model, sampling parameters, and every
// message (including image bytes). Identical requests always yield
// identical keys, so under the temperature-0 determinism contract a
// key fully identifies the response, which is why the pipeline's
// result cache (internal/cache.Provider) keys completions on it.
func RequestKey(req Request) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	meta := struct {
		Model       string
		Temperature float64
		TopP        float64
		MaxTokens   int
	}{req.Model, req.Temperature, req.TopP, req.MaxTokens}
	if err := enc.Encode(meta); err != nil {
		return "", fmt.Errorf("llm: cache key: %w", err)
	}
	for _, m := range req.Messages {
		if err := enc.Encode(struct {
			Role    Role
			Content string
		}{m.Role, m.Content}); err != nil {
			return "", fmt.Errorf("llm: cache key: %w", err)
		}
		for _, img := range m.Images {
			h.Write(img)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
