package engine_test

// Tests for the firing hand-off (workers.go, docs/engine.md "Firing
// hand-off"): each pins one of its invariants from the outside.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
)

// workerFixture is one host running one coordinator, "s", whose provider
// reports every invocation's instance on fired and then — for instances
// named in block — waits on release.
type workerFixture struct {
	net     *transport.InMem
	host    *engine.Host
	fired   chan string
	release chan struct{}
	done    chan string // instances whose done message reached the wrapper sink
}

func newWorkerFixture(t *testing.T, opts transport.InMemOptions, block ...string) *workerFixture {
	t.Helper()
	f := &workerFixture{
		net:     transport.NewInMem(opts),
		fired:   make(chan string, 16),
		release: make(chan struct{}),
		done:    make(chan string, 16),
	}
	t.Cleanup(func() { f.net.Close() })
	blocked := map[string]bool{}
	for _, id := range block {
		blocked[id] = true
	}
	svc := service.NewSimulated("Svc", service.SimulatedOptions{})
	svc.Handle("run", func(_ context.Context, p map[string]string) (map[string]string, error) {
		f.fired <- p["id"]
		if blocked[p["id"]] {
			<-f.release
		}
		return map[string]string{}, nil
	})
	reg := service.NewRegistry()
	reg.Register(svc)
	dir := engine.NewDirectory()
	h, err := engine.NewHost(f.net, "worker-host", reg, dir, engine.HostOptions{})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	f.host = h
	err = engine.InstallTable(h, "C", &routing.Table{
		State:           "s",
		Service:         "Svc",
		Operation:       "run",
		Inputs:          []statechart.Binding{{Param: "id", Var: "id"}},
		Preconditions:   []routing.Clause{{Sources: []string{"src"}}},
		Postprocessings: []routing.Target{{To: message.WrapperID}},
	})
	if err != nil {
		t.Fatalf("Install: %v", err)
	}
	if _, err := f.net.Listen("worker-wrapper", func(_ context.Context, m *message.Message) { f.done <- m.Instance }); err != nil {
		t.Fatal(err)
	}
	dir.Set("C", message.WrapperID, "worker-wrapper")
	return f
}

// notify sends instance's one notification; every notification has the
// same From, so all of them travel the same receive lane.
func (f *workerFixture) notify(t *testing.T, instance string) {
	t.Helper()
	err := f.net.Send(context.Background(), "worker-host", &message.Message{
		Type: message.TypeNotify, Composite: "C", Instance: instance, From: "src", To: "s",
		Vars: map[string]string{"id": instance},
	})
	if err != nil {
		t.Fatalf("notify %s: %v", instance, err)
	}
}

func expect(t *testing.T, ch <-chan string, want, what string) {
	t.Helper()
	select {
	case got := <-ch:
		if got != want {
			t.Fatalf("%s: got instance %q, want %q", what, got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: instance %q never got there", what, want)
	}
}

// TestBlockedProviderDelaysNobodyElse: no firing waits behind another,
// and a receive lane never blocks in dispatch. Instance A's provider
// blocks; instance B — same coordinator, same host, delivered by the
// same lane right behind A — fires and completes while A is still
// inside its provider, and so do as many more as there are idle workers
// and then some.
func TestBlockedProviderDelaysNobodyElse(t *testing.T) {
	f := newWorkerFixture(t, transport.InMemOptions{}, "A")
	f.notify(t, "A")
	expect(t, f.fired, "A", "blocked firing")
	for i := 0; i < engine.MaxIdleWorkers+4; i++ {
		id := fmt.Sprint("B", i)
		f.notify(t, id)
		expect(t, f.fired, id, "firing behind a blocked one")
		expect(t, f.done, id, "completion behind a blocked one")
	}
	close(f.release)
	expect(t, f.done, "A", "released firing")
}

// TestFiringsReuseParkedWorkers: firings that arrive one after another
// run on workers that are already there. A thousand of them start a
// handful of goroutines — never more than the idle bound plus the one
// that found every parked worker just busy — and leave at most the idle
// bound parked.
func TestFiringsReuseParkedWorkers(t *testing.T) {
	for name, opts := range map[string]transport.InMemOptions{
		"lanes":       {},
		"synchronous": {Synchronous: true},
	} {
		t.Run(name, func(t *testing.T) {
			f := newWorkerFixture(t, opts)
			for i := 0; i < 1000; i++ {
				id := fmt.Sprint("i", i)
				f.notify(t, id)
				expect(t, f.fired, id, "firing")
				expect(t, f.done, id, "completion")
			}
			spawned, idle := engine.WorkerStats(f.host)
			if spawned == 0 || spawned > engine.MaxIdleWorkers+1 {
				t.Errorf("1000 sequential firings started %d workers, want 1..%d", spawned, engine.MaxIdleWorkers+1)
			}
			if idle > engine.MaxIdleWorkers {
				t.Errorf("%d workers parked, bound is %d", idle, engine.MaxIdleWorkers)
			}
		})
	}
}

// TestIdleWorkersBoundedAndRetiredByClose: a burst wider than the idle
// bound runs all at once (one worker each), parks no more workers than
// the bound when it is over, and Host.Close takes the goroutine count
// back to where it was before the first firing.
func TestIdleWorkersBoundedAndRetiredByClose(t *testing.T) {
	const burst = 2*engine.MaxIdleWorkers + 3
	var ids []string
	for i := 0; i < burst; i++ {
		ids = append(ids, fmt.Sprint("i", i))
	}
	f := newWorkerFixture(t, transport.InMemOptions{}, ids...)
	baseline := runtime.NumGoroutine()
	for _, id := range ids {
		f.notify(t, id)
		expect(t, f.fired, id, "burst firing") // all of them inside the provider at once
	}
	if spawned, _ := engine.WorkerStats(f.host); spawned != burst {
		t.Errorf("a burst of %d concurrent firings started %d workers", burst, spawned)
	}
	close(f.release)
	for range ids {
		select {
		case <-f.done:
		case <-time.After(5 * time.Second):
			t.Fatal("burst never completed")
		}
	}
	settle := func(want func(n int) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !want(runtime.NumGoroutine()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before the first firing", what, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
	settle(func(n int) bool { return n <= baseline+engine.MaxIdleWorkers }, "after the burst")
	if _, idle := engine.WorkerStats(f.host); idle == 0 || idle > engine.MaxIdleWorkers {
		t.Errorf("%d workers parked after the burst, want 1..%d", idle, engine.MaxIdleWorkers)
	}
	if err := f.host.Close(); err != nil {
		t.Fatal(err)
	}
	settle(func(n int) bool { return n <= baseline }, "after Host.Close")
	if _, idle := engine.WorkerStats(f.host); idle != 0 {
		t.Errorf("%d workers still parked after Close", idle)
	}
}
