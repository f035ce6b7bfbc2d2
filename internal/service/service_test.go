package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Lookup("ghost"); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("Lookup(ghost) = %v", err)
	}
	a := NewSimulated("A", SimulatedOptions{}).Echo("op")
	b := NewSimulated("B", SimulatedOptions{}).Echo("op")
	r.Register(a)
	r.Register(b)
	if got := r.Names(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Fatalf("Names = %v", got)
	}
	p, err := r.Lookup("A")
	if err != nil || p.Name() != "A" {
		t.Fatalf("Lookup(A) = %v, %v", p, err)
	}
	resp, err := r.Invoke(context.Background(), Request{Service: "B", Operation: "op", Params: map[string]string{"k": "v"}})
	if err != nil || resp.Outputs["k"] != "v" {
		t.Fatalf("Invoke = %v, %v", resp, err)
	}
	r.Unregister("A")
	if _, err := r.Lookup("A"); err == nil {
		t.Fatal("Unregister did not remove A")
	}
	// Re-registering replaces.
	a2 := NewSimulated("B", SimulatedOptions{}).Handle("op", func(context.Context, map[string]string) (map[string]string, error) {
		return map[string]string{"v": "2"}, nil
	})
	r.Register(a2)
	resp, err = r.Invoke(context.Background(), Request{Service: "B", Operation: "op"})
	if err != nil || resp.Outputs["v"] != "2" {
		t.Fatalf("replaced Invoke = %v, %v", resp, err)
	}
}

func TestSimulatedUnknownOperation(t *testing.T) {
	s := NewSimulated("S", SimulatedOptions{})
	_, err := s.Invoke(context.Background(), Request{Operation: "nope"})
	if !errors.Is(err, ErrUnknownOperation) {
		t.Fatalf("err = %v", err)
	}
}

func TestSimulatedLatency(t *testing.T) {
	s := NewSimulated("S", SimulatedOptions{BaseLatency: 20 * time.Millisecond}).Echo("op")
	start := time.Now()
	if _, err := s.Invoke(context.Background(), Request{Operation: "op"}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 18*time.Millisecond {
		t.Fatalf("returned after %v, want >= 20ms", d)
	}
}

func TestSimulatedContextCancel(t *testing.T) {
	s := NewSimulated("S", SimulatedOptions{BaseLatency: time.Minute}).Echo("op")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Invoke(ctx, Request{Operation: "op"})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not interrupt the sleep")
	}
}

func TestSimulatedFailRate(t *testing.T) {
	s := NewSimulated("S", SimulatedOptions{FailRate: 0.5, Seed: 7}).Echo("op")
	fails := 0
	const n = 400
	for i := 0; i < n; i++ {
		if _, err := s.Invoke(context.Background(), Request{Operation: "op"}); err != nil {
			fails++
		}
	}
	if fails < n/4 || fails > 3*n/4 {
		t.Fatalf("fails = %d of %d at 50%% rate", fails, n)
	}
	invoked, failures, inflight := s.Counters()
	if invoked != n || failures != int64(fails) || inflight != 0 {
		t.Fatalf("counters = %d %d %d", invoked, failures, inflight)
	}
}

func TestSimulatedHandlerError(t *testing.T) {
	s := NewSimulated("S", SimulatedOptions{}).Handle("op", func(context.Context, map[string]string) (map[string]string, error) {
		return nil, fmt.Errorf("domain failure")
	})
	_, err := s.Invoke(context.Background(), Request{Operation: "op"})
	if err == nil || !strings.Contains(err.Error(), "domain failure") {
		t.Fatalf("err = %v", err)
	}
	_, failures, _ := s.Counters()
	if failures != 1 {
		t.Fatalf("failures = %d", failures)
	}
}

func TestSimulatedConcurrentInvocations(t *testing.T) {
	s := NewSimulated("S", SimulatedOptions{Jitter: time.Millisecond}).Echo("op")
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Invoke(context.Background(), Request{
				Operation: "op",
				Params:    map[string]string{"i": fmt.Sprint(i)},
			})
			if err != nil || resp.Outputs["i"] != fmt.Sprint(i) {
				t.Errorf("invocation %d: %v %v", i, resp, err)
			}
		}(i)
	}
	wg.Wait()
	invoked, failures, inflight := s.Counters()
	if invoked != 50 || failures != 0 || inflight != 0 {
		t.Fatalf("counters = %d %d %d", invoked, failures, inflight)
	}
}

// TestSimulatedInvokeAllocatesOnlyTheHandlersOutputs: the in-flight
// bookkeeping around a call costs no heap object (it was a deferred
// closure per call, one per hop of every execution), with or without a
// concurrency cap — and the gauge still comes back to zero on every way
// out of the call.
func TestSimulatedInvokeAllocatesOnlyTheHandlersOutputs(t *testing.T) {
	ctx := context.Background()
	out := map[string]string{"x": "1"}
	handler := func(context.Context, map[string]string) (map[string]string, error) { return out, nil }
	req := Request{Operation: "op", Params: map[string]string{"x": "0"}}
	for _, opts := range []SimulatedOptions{{}, {MaxConcurrent: 2}} {
		s := NewSimulated("S", opts).Handle("op", handler)
		if a := testing.AllocsPerRun(200, func() {
			if _, err := s.Invoke(ctx, req); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%+v: an Invoke whose handler allocates nothing allocates %v objects, want 0", opts, a)
		}
	}

	s := NewSimulated("S", SimulatedOptions{BaseLatency: time.Hour, MaxConcurrent: 1}).Handle("op", handler)
	s.Handle("fails", func(context.Context, map[string]string) (map[string]string, error) { return nil, errors.New("no") })
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, op := range []string{"op", "fails", "missing"} { // cancelled in its service time, twice, and unknown
		if _, err := s.Invoke(cancelled, Request{Operation: op}); err == nil {
			t.Errorf("%s: no error", op)
		}
	}
	s.SetDown(true)
	if _, err := s.Invoke(ctx, req); !errors.Is(err, ErrProviderDown) {
		t.Errorf("down: %v", err)
	}
	if invoked, failures, inflight := s.Counters(); invoked != 4 || failures != 1 || inflight != 0 {
		t.Errorf("counters after four failed calls = %d invoked, %d failures, %d in flight; want 4, 1, 0", invoked, failures, inflight)
	}
}

func TestOperationsSorted(t *testing.T) {
	s := NewSimulated("S", SimulatedOptions{}).Echo("zeta").Echo("alpha").Echo("mid")
	if got := s.Operations(); !reflect.DeepEqual(got, []string{"alpha", "mid", "zeta"}) {
		t.Fatalf("Operations = %v", got)
	}
}

func TestTravelServices(t *testing.T) {
	ctx := context.Background()

	t.Run("domestic flight", func(t *testing.T) {
		dfb := NewDomesticFlightBooking(SimulatedOptions{})
		resp, err := dfb.Invoke(ctx, Request{Operation: "book", Params: map[string]string{
			"customer": "alice", "dest": "sydney",
		}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Outputs["ref"] != "QF-ALI-SYD" {
			t.Fatalf("ref = %q", resp.Outputs["ref"])
		}
		if _, err := dfb.Invoke(ctx, Request{Operation: "book", Params: map[string]string{
			"customer": "alice", "dest": "tokyo",
		}}); err == nil {
			t.Fatal("booked a domestic flight to tokyo")
		}
		if _, err := dfb.Invoke(ctx, Request{Operation: "book"}); err == nil {
			t.Fatal("booked with no destination")
		}
	})

	t.Run("international", func(t *testing.T) {
		ita := NewInternationalTravel(SimulatedOptions{})
		resp, err := ita.Invoke(ctx, Request{Operation: "arrange", Params: map[string]string{
			"customer": "bob", "dest": "tokyo",
		}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Outputs["ref"] != "INT-BOB-TOK" || resp.Outputs["insurance"] != "INS-BOB" {
			t.Fatalf("outputs = %v", resp.Outputs)
		}
	})

	t.Run("attractions near and far", func(t *testing.T) {
		as := NewAttractionsSearch(SimulatedOptions{})
		near, err := as.Invoke(ctx, Request{Operation: "search", Params: map[string]string{"dest": "sydney"}})
		if err != nil {
			t.Fatal(err)
		}
		if near.Outputs["top"] != "Opera House" || near.Outputs["distance"] != "2" {
			t.Fatalf("sydney = %v", near.Outputs)
		}
		far, err := as.Invoke(ctx, Request{Operation: "search", Params: map[string]string{"dest": "melbourne"}})
		if err != nil {
			t.Fatal(err)
		}
		if far.Outputs["distance"] != "180" {
			t.Fatalf("melbourne = %v", far.Outputs)
		}
		unknown, err := as.Invoke(ctx, Request{Operation: "search", Params: map[string]string{"dest": "atlantis"}})
		if err != nil {
			t.Fatal(err)
		}
		if unknown.Outputs["top"] != "Remote Wonder" {
			t.Fatalf("unknown = %v", unknown.Outputs)
		}
	})

	t.Run("accommodation brand", func(t *testing.T) {
		ab := NewAccommodationBooking("GrandHotel", SimulatedOptions{})
		resp, err := ab.Invoke(ctx, Request{Operation: "book", Params: map[string]string{
			"customer": "alice", "dest": "sydney",
		}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Outputs["addr"] != "GrandHotel sydney" {
			t.Fatalf("addr = %q", resp.Outputs["addr"])
		}
	})

	t.Run("car rental", func(t *testing.T) {
		cr := NewCarRental(SimulatedOptions{})
		resp, err := cr.Invoke(ctx, Request{Operation: "rent", Params: map[string]string{
			"customer": "alice", "addr": "GrandHotel sydney",
		}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Outputs["car"] != "CAR-ALI" {
			t.Fatalf("car = %q", resp.Outputs["car"])
		}
		if _, err := cr.Invoke(ctx, Request{Operation: "rent"}); err == nil {
			t.Fatal("rented with no pickup address")
		}
	})
}

func TestIsDomesticCity(t *testing.T) {
	if !IsDomesticCity("sydney") || IsDomesticCity("tokyo") || IsDomesticCity("") {
		t.Fatal("IsDomesticCity wrong")
	}
}

func BenchmarkSimulatedInvoke(b *testing.B) {
	s := NewSimulated("S", SimulatedOptions{}).Echo("op")
	req := Request{Operation: "op", Params: map[string]string{"a": "1"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Invoke(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}
