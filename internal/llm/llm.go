// Package llm defines the provider-agnostic chat-completion interface
// Borges's learning-based stages are built on. The paper runs OpenAI's
// GPT-4o-mini with temperature 0 and top-p 1 so that "the model
// consistently produces the most probable next token, resulting in
// reproducible outputs" (§4.2); any Provider implementation is expected
// to honour the same determinism contract: identical requests yield
// identical responses.
//
// Two implementations ship with this repository: llm/openai, a complete
// OpenAI-compatible HTTP client, and simllm, a deterministic simulated
// model used when no API endpoint is available.
package llm

import (
	"context"
	"errors"

	"github.com/nu-aqualab/borges/internal/resilience"
)

// Role identifies the author of a chat message.
type Role string

// Chat roles.
const (
	RoleSystem    Role = "system"
	RoleUser      Role = "user"
	RoleAssistant Role = "assistant"
)

// Message is one chat turn. Images carry raw image bytes for multimodal
// prompts (the favicon classifier of §4.3.3 attaches the icon being
// classified); providers encode them as the transport requires.
type Message struct {
	Role    Role
	Content string
	Images  [][]byte
}

// Request is a chat-completion request.
type Request struct {
	// Model names the model, e.g. "gpt-4o-mini".
	Model    string
	Messages []Message
	// Temperature is the sampling temperature; Borges always uses 0.
	Temperature float64
	// TopP is the nucleus-sampling mass; Borges always uses 1.
	TopP float64
	// MaxTokens bounds the completion length (0 = provider default).
	MaxTokens int
}

// Usage reports token accounting when the provider supplies it.
type Usage struct {
	PromptTokens     int
	CompletionTokens int
}

// Response is a chat completion.
type Response struct {
	Content string
	Model   string
	Usage   Usage
}

// Provider generates chat completions.
type Provider interface {
	Complete(ctx context.Context, req Request) (Response, error)
}

// ErrRateLimited marks a retryable rate-limit rejection. Providers wrap
// it so Retryable can recognise it with errors.Is.
var ErrRateLimited = errors.New("llm: rate limited")

// ErrServer marks a retryable transient server failure.
var ErrServer = errors.New("llm: server error")

// Retryable classifies provider errors worth retrying: rate limits,
// transient server failures, and anything the resilience taxonomy
// calls transient (timeouts, resets, torn responses). Durable failures
// — bad API keys, malformed requests — surface immediately.
func Retryable(err error) bool {
	return errors.Is(err, ErrRateLimited) ||
		errors.Is(err, ErrServer) ||
		resilience.IsTransient(err)
}
