package engine_test

// Regression tests for the seed-8 AND-join liveness flake
// (TestRandomParallelChartsBothComplete/seed-8, ROADMAP "known flake").
//
// Root cause: a guarded transition OUT of a concurrent state compiles to
// receiver-side guards on the AND-join clauses of EVERY alternative
// successor (routing's guard-placement rule: no single region exit sees
// the merged bag). Each successor's coordinator used to evaluate that
// guard on a bag merged in ARRIVAL order, so two successors with
// complementary guards ("x % 2 = 0" vs "x % 2 = 1") could — under
// scheduler jitter — merge the regions' bags in opposite orders,
// disagree on x, and BOTH reject. The notifications stayed pending
// forever and the instance stalled until its deadline (~1 in 5 loops of
// -race -count=10). The mirror interleaving made BOTH fire instead.
//
// The fix merges per-source bags in a canonical order (sorted source
// IDs, routing.CompiledTable.MergeOrder), so every receiver of the same
// notifications computes the same bag and exactly one complementary
// guard holds. These tests pin both losing interleavings
// deterministically — synchronous in-memory delivery, no sleeps, no
// timing dependence — rather than re-running the random chart under a
// longer deadline.

import (
	"context"
	"maps"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
)

// joinFixture is one host running the two alternative AND-join
// successors "even" (guard x % 2 = 0) and "odd" (guard x % 2 = 1), both
// joining on sources {s1, s2} — the minimal shape of seed-8's
// npar11 --[x % 2 = 0]--> n26 / --[x % 2 = 1]--> n27.
type joinFixture struct {
	net   *transport.InMem
	fired map[string]chan map[string]string // state -> invocation params
}

func newJoinFixture(t *testing.T) *joinFixture {
	t.Helper()
	f := &joinFixture{
		net:   transport.NewInMem(transport.InMemOptions{Synchronous: true}),
		fired: map[string]chan map[string]string{},
	}
	t.Cleanup(func() { f.net.Close() })

	reg := service.NewRegistry()
	for _, state := range []string{"even", "odd"} {
		state := state
		ch := make(chan map[string]string, 4)
		f.fired[state] = ch
		s := service.NewSimulated("Svc-"+state, service.SimulatedOptions{})
		s.Handle("run", func(_ context.Context, p map[string]string) (map[string]string, error) {
			ch <- maps.Clone(p) // p is borrowed for the call only
			return map[string]string{}, nil
		})
		reg.Register(s)
	}

	dir := engine.NewDirectory()
	h, err := engine.NewHost(f.net, "join-host", reg, dir, engine.HostOptions{})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(func() { h.Close() })

	for state, cond := range map[string]string{"even": "x % 2 = 0", "odd": "x % 2 = 1"} {
		err := engine.InstallTable(h, "C", &routing.Table{
			State:     state,
			Service:   "Svc-" + state,
			Operation: "run",
			Inputs:    []statechart.Binding{{Param: "x", Var: "x"}},
			Preconditions: []routing.Clause{
				{Sources: []string{"s1", "s2"}, Condition: cond},
			},
			Postprocessings: []routing.Target{{To: message.WrapperID}},
		})
		if err != nil {
			t.Fatalf("Install %s: %v", state, err)
		}
	}
	// The coordinators notify the wrapper after firing; give that ID an
	// address so the postprocessing lookup succeeds (a sink, not asserted).
	if _, err := f.net.Listen("join-wrapper", func(context.Context, *message.Message) {}); err != nil {
		t.Fatal(err)
	}
	dir.Set("C", message.WrapperID, "join-wrapper")
	return f
}

// notify delivers one region-exit notification synchronously: from
// carries its own region's view of x.
func (f *joinFixture) notify(t *testing.T, instance, to, from, x string) {
	t.Helper()
	err := f.net.Send(context.Background(), "join-host", &message.Message{
		Type:      message.TypeNotify,
		Composite: "C",
		Instance:  instance,
		From:      from,
		To:        to,
		Vars:      map[string]string{"x": x},
	})
	if err != nil {
		t.Fatalf("notify %s<-%s: %v", to, from, err)
	}
}

// expectFire waits for the state's service invocation and returns its
// params; expectQuiet asserts the state never fired.
func (f *joinFixture) expectFire(t *testing.T, state string) map[string]string {
	t.Helper()
	select {
	case p := <-f.fired[state]:
		return p
	case <-time.After(5 * time.Second):
		t.Fatalf("AND-join successor %q never fired: the losing interleaving stalled the instance (arrival-order bag merge)", state)
		return nil
	}
}

func (f *joinFixture) expectQuiet(t *testing.T, state string) {
	t.Helper()
	select {
	case p := <-f.fired[state]:
		t.Fatalf("AND-join successor %q fired (params %v): complementary guards both held — receivers disagreed on the merged bag", state, p)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestANDJoinGuardsAgreeBothStallInterleaving pins the interleaving that
// caused the seed-8 stall: the "even" successor sees s1 (x=2) before
// s2 (x=3), the "odd" successor sees them in the OPPOSITE order. With
// arrival-order merging, even's bag ends odd and odd's bag ends even —
// both guards reject, nothing ever fires, the instance hangs. With the
// canonical merge order both receivers agree on s2's x (sources sorted:
// s1 before s2), so exactly "odd" fires, with x = 3.
func TestANDJoinGuardsAgreeBothStallInterleaving(t *testing.T) {
	f := newJoinFixture(t)
	// Region exits disagree on x: region 1 left it even, region 2 odd.
	f.notify(t, "i1", "even", "s1", "2")
	f.notify(t, "i1", "odd", "s2", "3")
	f.notify(t, "i1", "even", "s2", "3") // even now covered, last arrival x=3
	f.notify(t, "i1", "odd", "s1", "2")  // odd now covered, last arrival x=2

	p := f.expectFire(t, "odd")
	f.expectQuiet(t, "even")
	if p["x"] != "3" {
		t.Fatalf("odd fired with x = %q, want the canonical merge's 3 (s2 overrides s1)", p["x"])
	}
}

// TestANDJoinGuardsAgreeBothFireInterleaving pins the mirror
// interleaving: each receiver's LAST arrival matches its own guard, so
// with arrival-order merging BOTH complementary successors fired (a
// divergence rather than a stall). The canonical merge picks one.
func TestANDJoinGuardsAgreeBothFireInterleaving(t *testing.T) {
	f := newJoinFixture(t)
	f.notify(t, "i2", "odd", "s1", "2")
	f.notify(t, "i2", "even", "s2", "3")
	f.notify(t, "i2", "odd", "s2", "3")  // odd covered, last arrival x=3 (its guard holds)
	f.notify(t, "i2", "even", "s1", "2") // even covered, last arrival x=2 (its guard holds)

	p := f.expectFire(t, "odd")
	f.expectQuiet(t, "even")
	if p["x"] != "3" {
		t.Fatalf("odd fired with x = %q, want 3", p["x"])
	}
}

// TestFiringResultsVisibleToLaterClauses pins the layering against a
// shadowing regression: a firing's service outputs must be visible to
// the guards of LATER clauses of the same state, even when an interned
// source's earlier notification carried an older value for the same
// variable. (A source bag that was fully absorbed into the fire
// snapshot is cleared at finish; only data arriving DURING the firing
// may override the results.)
func TestFiringResultsVisibleToLaterClauses(t *testing.T) {
	net := transport.NewInMem(transport.InMemOptions{Synchronous: true})
	defer net.Close()

	fired := make(chan map[string]string, 4)
	reg := service.NewRegistry()
	s := service.NewSimulated("SvcGate", service.SimulatedOptions{})
	s.Handle("run", func(_ context.Context, p map[string]string) (map[string]string, error) {
		fired <- maps.Clone(p) // p is borrowed for the call only
		// The firing rewrites x: later guard evaluations must see 10,
		// not the x=1 the s1 notification carried.
		return map[string]string{"x": "10"}, nil
	})
	reg.Register(s)

	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, "gate-host", reg, dir, engine.HostOptions{})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	defer h.Close()
	err = engine.InstallTable(h, "C", &routing.Table{
		State:     "gate",
		Service:   "SvcGate",
		Operation: "run",
		Inputs:    []statechart.Binding{{Param: "x", Var: "x"}},
		Outputs:   []statechart.Binding{{Param: "x", Var: "x"}},
		Preconditions: []routing.Clause{
			{Sources: []string{"s1"}},
			{Sources: []string{"s2"}, Condition: "x = 10"},
		},
		Postprocessings: []routing.Target{{To: message.WrapperID}},
	})
	if err != nil {
		t.Fatalf("Install: %v", err)
	}
	if _, err := net.Listen("gate-wrapper", func(context.Context, *message.Message) {}); err != nil {
		t.Fatal(err)
	}
	dir.Set("C", message.WrapperID, "gate-wrapper")

	notify := func(from string, vars map[string]string) {
		t.Helper()
		err := net.Send(context.Background(), "gate-host", &message.Message{
			Type: message.TypeNotify, Composite: "C", Instance: "i1",
			From: from, To: "gate", Vars: vars,
		})
		if err != nil {
			t.Fatalf("notify from %s: %v", from, err)
		}
	}
	expect := func(wantX string) map[string]string {
		t.Helper()
		select {
		case p := <-fired:
			if p["x"] != wantX {
				t.Fatalf("fired with x = %q, want %q", p["x"], wantX)
			}
			return p
		case <-time.After(5 * time.Second):
			t.Fatalf("gate never fired waiting for x=%s: stale source data shadowed the firing's output", wantX)
			return nil
		}
	}

	notify("s1", map[string]string{"x": "1"})
	expect("1") // first clause fires on s1's bag
	notify("s2", map[string]string{"y": "7"})
	// The second clause's guard (x = 10) must see the FIRING's output,
	// not s1's stale x=1.
	expect("10")
}

// TestWrapperFinishBagIsArrivalOrderIndependent pins the wrapper-side
// twin: the final variable bag (and therefore finish-guard evaluation
// and the execution's outputs) must not depend on which exit's
// termination notice arrived last. Two exits report different x; both
// delivery orders must yield the canonical merge's value.
func TestWrapperFinishBagIsArrivalOrderIndependent(t *testing.T) {
	for name, order := range map[string][2]string{
		"a-then-b": {"a", "b"},
		"b-then-a": {"b", "a"},
	} {
		t.Run(name, func(t *testing.T) {
			net := transport.NewInMem(transport.InMemOptions{Synchronous: true})
			defer net.Close()
			dir := engine.NewDirectory()

			plan := &routing.Plan{
				Composite: "W",
				Inputs:    nil,
				Outputs:   nil,
				Tables: map[string]*routing.Table{
					"a": {State: "a", Service: "SA", Operation: "run",
						Preconditions:   []routing.Clause{{Sources: []string{message.WrapperID}}},
						Postprocessings: []routing.Target{{To: message.WrapperID}}},
					"b": {State: "b", Service: "SB", Operation: "run",
						Preconditions:   []routing.Clause{{Sources: []string{message.WrapperID}}},
						Postprocessings: []routing.Target{{To: message.WrapperID}}},
				},
				Start:  []routing.Target{{To: "a"}, {To: "b"}},
				Finish: []routing.Clause{{Sources: []string{"a", "b"}}},
			}
			// The states are never really deployed: the test injects their
			// TypeDone notices directly, in a chosen order. Park their
			// directory entries on a sink so the wrapper's start flush has
			// somewhere to go.
			if _, err := net.Listen("sink", func(context.Context, *message.Message) {}); err != nil {
				t.Fatal(err)
			}
			dir.Set("W", "a", "sink")
			dir.Set("W", "b", "sink")

			w, err := newWrapper(net, "wrapper-W", dir, plan, engine.HostOptions{})
			if err != nil {
				t.Fatalf("NewWrapper: %v", err)
			}
			defer w.Close()

			type result struct {
				out map[string]string
				err error
			}
			done := make(chan result, 1)
			go func() {
				out, err := w.ExecuteInstance(context.Background(), "i1", map[string]string{"x": "0"})
				done <- result{out, err}
			}()
			// Wait until the start frame reached the sink, so the instance
			// is registered before its termination notices arrive.
			deadline := time.Now().Add(5 * time.Second)
			for net.Stats().Nodes["sink"].MsgsIn < 2 {
				if time.Now().After(deadline) {
					t.Fatal("start notifications never reached the sink")
				}
				time.Sleep(time.Millisecond)
			}

			x := map[string]string{"a": "10", "b": "11"}
			for _, from := range order {
				err := net.Send(context.Background(), "wrapper-W", &message.Message{
					Type:      message.TypeDone,
					Composite: "W",
					Instance:  "i1",
					From:      from,
					To:        message.WrapperID,
					Vars:      map[string]string{"x": x[from]},
				})
				if err != nil {
					t.Fatalf("done from %s: %v", from, err)
				}
			}
			res := <-done
			if res.err != nil {
				t.Fatalf("ExecuteInstance: %v", res.err)
			}
			// Canonical merge: "a" before "b", so b's x wins in EITHER
			// delivery order. Before the fix this was last-arrival-wins.
			if res.out["x"] != "11" {
				t.Fatalf("final x = %q under order %v, want the canonical 11", res.out["x"], order)
			}
		})
	}
}
