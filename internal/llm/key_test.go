package llm

import "testing"

// TestRequestKeySensitivity: every field a completion depends on (the
// model, each sampling parameter, a message's role, text and image
// bytes) changes the key, and identical requests share one.
func TestRequestKeySensitivity(t *testing.T) {
	key := func(req Request) string {
		t.Helper()
		k, err := RequestKey(req)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	image := func(b ...byte) Request {
		return Request{Model: "m", Messages: []Message{{Role: RoleUser, Content: "x", Images: [][]byte{b}}}}
	}
	base := reqWith("x")
	variants := []Request{
		{Model: "other", Messages: base.Messages},
		{Model: "m", Temperature: 0.5, Messages: base.Messages},
		{Model: "m", TopP: 0.9, Messages: base.Messages},
		{Model: "m", MaxTokens: 9, Messages: base.Messages},
		{Model: "m", Messages: []Message{{Role: RoleSystem, Content: "x"}}},
		reqWith("y"),
		image(1, 2, 3),
		image(9, 9, 9),
	}
	seen := map[string]int{key(base): -1}
	for i, v := range variants {
		k := key(v)
		if j, dup := seen[k]; dup {
			t.Errorf("variant %d has the key of variant %d", i, j)
		}
		seen[k] = i
	}
	if key(reqWith("x")) != key(base) || key(image(1, 2, 3)) != key(variants[6]) {
		t.Error("identical requests have different keys")
	}
}
