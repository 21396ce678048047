package classify

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/nu-aqualab/borges/internal/asnum"
	"github.com/nu-aqualab/borges/internal/favicon"
	"github.com/nu-aqualab/borges/internal/llm"
)

// gatedProvider holds every completion until release is closed, and
// counts the calls that reached it.
type gatedProvider struct {
	release chan struct{}
	calls   atomic.Int64
}

func (g *gatedProvider) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	g.calls.Add(1)
	<-g.release
	return llm.Response{Content: "Claro"}, nil
}

// TestClassifyAllCancelStopsModelCalls: cancelling while every worker
// is blocked in the model lets the in-flight calls finish, issues no
// further call, and marks every group no worker reached Unknown with
// context.Canceled.
func TestClassifyAllCancelStopsModelCalls(t *testing.T) {
	const conc, n = 4, 100
	var groups []favicon.Group
	for i := 0; i < n; i++ {
		// Differing brand labels: every group needs step 2's model call.
		groups = append(groups, group(fmt.Sprintf("h%d", i), map[string][]asnum.ASN{
			fmt.Sprintf("https://a%d-isp.test/", i): {asnum.ASN(100 + i)},
			fmt.Sprintf("https://b%d-net.test/", i): {asnum.ASN(1000 + i)},
		}))
	}
	p := &gatedProvider{release: make(chan struct{})}
	c := &Classifier{Provider: p, Concurrency: conc}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan []Outcome, 1)
	go func() { done <- c.ClassifyAll(ctx, groups) }()
	deadline := time.Now().Add(10 * time.Second)
	for p.calls.Load() != conc {
		if time.Now().After(deadline) {
			t.Fatalf("model calls in flight = %d, want %d", p.calls.Load(), conc)
		}
		runtime.Gosched()
	}
	cancel()
	close(p.release)
	outs := <-done
	if got := p.calls.Load(); got != conc {
		t.Errorf("model calls = %d, want %d: a group reached the model after cancellation", got, conc)
	}
	finished := 0
	for i, o := range outs {
		if o.Group.Hash != groups[i].Hash {
			t.Fatalf("outcome %d out of order: %q", i, o.Group.Hash)
		}
		switch {
		case o.Err == nil && o.Decision == DecisionCompany:
			finished++
		case !errors.Is(o.Err, context.Canceled) || o.Decision != DecisionUnknown:
			t.Errorf("outcome %d = %v %v, want unknown with context.Canceled", i, o.Decision, o.Err)
		}
	}
	if finished != conc {
		t.Errorf("classified groups = %d, want the %d in flight at cancellation", finished, conc)
	}
}
