package service

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// countingProvider executes for real every time it is reached, so tests
// can count actual executions behind the dedup layer.
type countingProvider struct {
	executions atomic.Int64
	fail       atomic.Bool
	release    chan struct{} // when non-nil, Invoke blocks until closed
}

func (p *countingProvider) Name() string         { return "counting" }
func (p *countingProvider) Operations() []string { return []string{"op"} }

func (p *countingProvider) Invoke(_ context.Context, req Request) (Response, error) {
	n := p.executions.Add(1)
	if p.release != nil {
		<-p.release
	}
	if p.fail.Load() {
		return Response{}, errors.New("boom")
	}
	return Response{Outputs: map[string]string{"n": strconv.FormatInt(n, 10), "key": req.IdempotencyKey.Instance}}, nil
}

func TestIdempotentReplaysCompletedSuccess(t *testing.T) {
	p := &countingProvider{}
	w := NewIdempotent(p, 8)
	req := Request{Operation: "op", IdempotencyKey: Key{Instance: "k1"}}

	first, err := w.Invoke(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := w.Invoke(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if p.executions.Load() != 1 {
		t.Fatalf("executions = %d, want 1 (retry must not re-execute)", p.executions.Load())
	}
	if first.Outputs["n"] != second.Outputs["n"] {
		t.Fatalf("retry got a different response: %v vs %v", first.Outputs, second.Outputs)
	}
	if w.Hits() != 1 {
		t.Fatalf("Hits = %d, want 1", w.Hits())
	}
}

func TestIdempotentDistinctKeysExecuteSeparately(t *testing.T) {
	p := &countingProvider{}
	w := NewIdempotent(p, 8)
	for i := 0; i < 3; i++ {
		if _, err := w.Invoke(context.Background(), Request{Operation: "op", IdempotencyKey: Key{Instance: "k", Seq: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if p.executions.Load() != 3 {
		t.Fatalf("executions = %d, want 3", p.executions.Load())
	}
}

func TestIdempotentEmptyKeyPassesThrough(t *testing.T) {
	p := &countingProvider{}
	w := NewIdempotent(p, 8)
	for i := 0; i < 3; i++ {
		if _, err := w.Invoke(context.Background(), Request{Operation: "op"}); err != nil {
			t.Fatal(err)
		}
	}
	if p.executions.Load() != 3 {
		t.Fatalf("executions = %d, want 3 (no key, no dedup)", p.executions.Load())
	}
	if w.Hits() != 0 {
		t.Fatalf("Hits = %d, want 0", w.Hits())
	}
}

func TestIdempotentFailureForgetsKey(t *testing.T) {
	p := &countingProvider{}
	p.fail.Store(true)
	w := NewIdempotent(p, 8)
	req := Request{Operation: "op", IdempotencyKey: Key{Instance: "k"}}

	if _, err := w.Invoke(context.Background(), req); err == nil {
		t.Fatal("expected failure")
	}
	// The provider recovers; a retry with the same key must re-execute
	// (only successes are deduplicated).
	p.fail.Store(false)
	if _, err := w.Invoke(context.Background(), req); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if p.executions.Load() != 2 {
		t.Fatalf("executions = %d, want 2", p.executions.Load())
	}
}

func TestIdempotentConcurrentDuplicatesShareOneExecution(t *testing.T) {
	p := &countingProvider{release: make(chan struct{})}
	w := NewIdempotent(p, 8)
	req := Request{Operation: "op", IdempotencyKey: Key{Instance: "k"}}

	const dupes = 8
	var wg sync.WaitGroup
	results := make([]Response, dupes)
	errs := make([]error, dupes)
	for g := 0; g < dupes; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = w.Invoke(context.Background(), req)
		}(g)
	}
	// Let the leader start, then release it; every duplicate must have
	// joined it rather than executed.
	for p.executions.Load() == 0 {
		runtime.Gosched()
	}
	close(p.release)
	wg.Wait()

	if p.executions.Load() != 1 {
		t.Fatalf("executions = %d, want 1 (singleflight)", p.executions.Load())
	}
	for g := 0; g < dupes; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if results[g].Outputs["n"] != "1" {
			t.Fatalf("goroutine %d got response %v", g, results[g].Outputs)
		}
	}
	if w.Hits() != dupes-1 {
		t.Fatalf("Hits = %d, want %d", w.Hits(), dupes-1)
	}
}

func TestIdempotentLRUEviction(t *testing.T) {
	p := &countingProvider{}
	w := NewIdempotent(p, 2)
	for _, k := range []string{"a", "b", "c"} { // "a" evicted by "c"
		if _, err := w.Invoke(context.Background(), Request{Operation: "op", IdempotencyKey: Key{Instance: k}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Invoke(context.Background(), Request{Operation: "op", IdempotencyKey: Key{Instance: "b"}}); err != nil {
		t.Fatal(err)
	}
	if p.executions.Load() != 3 {
		t.Fatalf("executions = %d: cached key %q re-executed", p.executions.Load(), "b")
	}
	// "a" aged out of the bounded cache, so it re-executes.
	if _, err := w.Invoke(context.Background(), Request{Operation: "op", IdempotencyKey: Key{Instance: "a"}}); err != nil {
		t.Fatal(err)
	}
	if p.executions.Load() != 4 {
		t.Fatalf("executions = %d, want 4 after eviction", p.executions.Load())
	}
}

func TestIdempotentPreservesIdentity(t *testing.T) {
	p := &countingProvider{}
	w := NewIdempotent(p, 8)
	if w.Name() != "counting" {
		t.Fatalf("Name = %q", w.Name())
	}
	if ops := w.Operations(); len(ops) != 1 || ops[0] != "op" {
		t.Fatalf("Operations = %v", ops)
	}
	if w.Unwrap() != Provider(p) {
		t.Fatal("Unwrap did not return the inner provider")
	}
}

func TestSimulatedSetDown(t *testing.T) {
	s := NewSimulated("hotel", SimulatedOptions{}).Echo("book")
	if err := s.Probe(context.Background()); err != nil {
		t.Fatalf("probe of healthy provider: %v", err)
	}
	s.SetDown(true)
	if !s.Down() {
		t.Fatal("Down = false after SetDown(true)")
	}
	if _, err := s.Invoke(context.Background(), Request{Operation: "book"}); !errors.Is(err, ErrProviderDown) {
		t.Fatalf("invoke of dead provider = %v, want ErrProviderDown", err)
	}
	if err := s.Probe(context.Background()); !errors.Is(err, ErrProviderDown) {
		t.Fatalf("probe of dead provider = %v, want ErrProviderDown", err)
	}
	invoked, failures, _ := s.Counters()
	if invoked != 1 || failures != 1 {
		t.Fatalf("counters = %d/%d, want the dead invoke counted", invoked, failures)
	}
	s.SetDown(false)
	if _, err := s.Invoke(context.Background(), Request{Operation: "book"}); err != nil {
		t.Fatalf("invoke after recovery: %v", err)
	}
}
