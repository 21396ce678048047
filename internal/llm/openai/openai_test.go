package openai

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/llm"
)

func completionJSON(content string) string {
	return fmt.Sprintf(`{
		"model": "gpt-4o-mini",
		"choices": [{"message": {"role": "assistant", "content": %q}, "finish_reason": "stop"}],
		"usage": {"prompt_tokens": 42, "completion_tokens": 7}
	}`, content)
}

func TestCompleteRequestShape(t *testing.T) {
	var captured map[string]any
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/chat/completions" {
			t.Errorf("path = %q", r.URL.Path)
		}
		if got := r.Header.Get("Authorization"); got != "Bearer sk-test" {
			t.Errorf("auth = %q", got)
		}
		if got := r.Header.Get("Content-Type"); got != "application/json" {
			t.Errorf("content-type = %q", got)
		}
		body, _ := io.ReadAll(r.Body)
		if err := json.Unmarshal(body, &captured); err != nil {
			t.Errorf("bad body: %v", err)
		}
		fmt.Fprint(w, completionJSON("hello"))
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, APIKey: "sk-test"}
	resp, err := c.Complete(context.Background(), llm.Request{
		Model:       "gpt-4o-mini",
		Temperature: 0,
		TopP:        1,
		Messages: []llm.Message{
			{Role: llm.RoleSystem, Content: "you are a network topology expert"},
			{Role: llm.RoleUser, Content: "extract siblings"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Content != "hello" || resp.Usage.PromptTokens != 42 || resp.Usage.CompletionTokens != 7 {
		t.Errorf("resp = %+v", resp)
	}
	if captured["model"] != "gpt-4o-mini" {
		t.Errorf("model = %v", captured["model"])
	}
	// Temperature 0 must be sent explicitly, not omitted: determinism
	// is part of the paper's methodology.
	if temp, ok := captured["temperature"].(float64); !ok || temp != 0 {
		t.Errorf("temperature = %v", captured["temperature"])
	}
	if topp, ok := captured["top_p"].(float64); !ok || topp != 1 {
		t.Errorf("top_p = %v", captured["top_p"])
	}
	msgs := captured["messages"].([]any)
	if len(msgs) != 2 {
		t.Fatalf("messages = %v", msgs)
	}
	first := msgs[0].(map[string]any)
	if first["role"] != "system" || !strings.Contains(first["content"].(string), "expert") {
		t.Errorf("first message = %v", first)
	}
}

func TestCompleteMultimodal(t *testing.T) {
	var captured map[string]any
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		json.Unmarshal(body, &captured)
		fmt.Fprint(w, completionJSON("Claro"))
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL}
	_, err := c.Complete(context.Background(), llm.Request{
		Model: "gpt-4o-mini",
		Messages: []llm.Message{{
			Role:    llm.RoleUser,
			Content: "Accessing these URLs returned the attached favicon.",
			Images:  [][]byte{{0xde, 0xad, 0xbe, 0xef}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs := captured["messages"].([]any)
	content := msgs[0].(map[string]any)["content"].([]any)
	if len(content) != 2 {
		t.Fatalf("content parts = %v", content)
	}
	img := content[1].(map[string]any)
	if img["type"] != "image_url" {
		t.Errorf("part type = %v", img["type"])
	}
	url := img["image_url"].(map[string]any)["url"].(string)
	if !strings.HasPrefix(url, "data:image/jpeg;base64,") {
		t.Errorf("image url = %q", url)
	}
	if !strings.Contains(url, "3q2+7w==") { // base64 of deadbeef
		t.Errorf("image payload missing: %q", url)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	status := 200
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		if status == 400 {
			fmt.Fprint(w, `{"error": {"message": "bad request body", "type": "invalid_request_error"}}`)
			return
		}
		fmt.Fprint(w, "oops")
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	req := llm.Request{Model: "m", Messages: []llm.Message{{Role: llm.RoleUser, Content: "x"}}}

	status = 429
	_, err := c.Complete(context.Background(), req)
	if !errors.Is(err, llm.ErrRateLimited) {
		t.Errorf("429 err = %v", err)
	}
	status = 503
	_, err = c.Complete(context.Background(), req)
	if !errors.Is(err, llm.ErrServer) {
		t.Errorf("503 err = %v", err)
	}
	status = 400
	_, err = c.Complete(context.Background(), req)
	if err == nil || errors.Is(err, llm.ErrRateLimited) || errors.Is(err, llm.ErrServer) {
		t.Errorf("400 err = %v", err)
	}
	if !strings.Contains(err.Error(), "bad request body") {
		t.Errorf("400 err should carry the API message: %v", err)
	}
}

func TestMalformedResponses(t *testing.T) {
	payload := ""
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, payload)
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	req := llm.Request{Model: "m", Messages: []llm.Message{{Role: llm.RoleUser, Content: "x"}}}

	payload = "not json"
	if _, err := c.Complete(context.Background(), req); err == nil {
		t.Error("non-JSON body should error")
	}
	payload = `{"choices": []}`
	if _, err := c.Complete(context.Background(), req); err == nil {
		t.Error("empty choices should error")
	}
	payload = `{"error": {"message": "quota exceeded"}}`
	if _, err := c.Complete(context.Background(), req); err == nil ||
		!strings.Contains(err.Error(), "quota exceeded") {
		t.Error("embedded error object should surface")
	}
}

func TestRetryingIntegration(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls < 3 {
			w.WriteHeader(429)
			return
		}
		fmt.Fprint(w, completionJSON("finally"))
	}))
	defer srv.Close()
	p := retrying(&Client{BaseURL: srv.URL}, func(ctx context.Context, d time.Duration) error { return nil })
	resp, err := p.Complete(context.Background(), llm.Request{
		Model: "m", Messages: []llm.Message{{Role: llm.RoleUser, Content: "x"}}})
	if err != nil || resp.Content != "finally" {
		t.Fatalf("resp=%+v err=%v calls=%d", resp, err, calls)
	}
}
