package engine_test

// Deterministic pinning of the passivation path (docs/durability.md):
// an AND-join instance that received only its first arrival is idle, so
// a cap-hit on its stripe passivates it to the journal; the second
// arrival transparently rehydrates it and the firing's parameters are
// byte-identical to a run whose cap nothing ever hit. No sleeps, no
// scheduling dependence: instance IDs i1..i40 pigeonhole over the
// 32-way striped table, so with a cap of 1 at least 8 half-armed join
// instances are guaranteed to passivate before their second arrival.

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/journal"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
)

const passivateInstances = 40

// drivePassivateJoin runs the two-phase AND-join drive on a fresh host
// with the given cap, the join installed at each of versions (none: the
// unversioned 0), and returns each firing's parameters by x plus the
// host's durability counters. Phase one delivers every instance's s1
// arrival in every version (half-covering the {s1, s2} clause, leaving
// the instance idle); phase two delivers s2, which must fire the join
// whether the instance stayed resident or went through disk. Instance
// iK of version v carries x = 1000v + K and y = 2x.
func drivePassivateJoin(t *testing.T, cap int, versions ...uint64) (map[string]map[string]string, *engine.Host) {
	t.Helper()
	net := transport.NewInMem(transport.InMemOptions{Synchronous: true})
	t.Cleanup(func() { net.Close() })

	type firing struct {
		params map[string]string
	}
	if len(versions) == 0 {
		versions = []uint64{0}
	}
	joins := passivateInstances * len(versions)
	fired := make(chan firing, joins)
	reg := service.NewRegistry()
	s := service.NewSimulated("SvcJoin", service.SimulatedOptions{})
	s.Handle("run", func(_ context.Context, p map[string]string) (map[string]string, error) {
		fired <- firing{params: maps.Clone(p)} // p is borrowed for the call only
		return map[string]string{}, nil
	})
	reg.Register(s)

	j, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	t.Cleanup(func() { j.Close() })

	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, "pass-host", reg, dir, engine.HostOptions{
		MaxInstancesPerState: cap,
		Journal:              j,
	})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(func() { h.Close() })

	if _, err := net.Listen("pass-sink", func(context.Context, *message.Message) {}); err != nil {
		t.Fatal(err)
	}
	for _, v := range versions {
		err = engine.InstallTable(h, "C", &routing.Table{
			Version:   v,
			State:     "join",
			Service:   "SvcJoin",
			Operation: "run",
			Inputs: []statechart.Binding{
				{Param: "x", Var: "x"},
				{Param: "y", Var: "y"},
				{Param: "s", Var: "s"},
			},
			Preconditions: []routing.Clause{
				{Sources: []string{"s1", "s2"}},
			},
			Postprocessings: []routing.Target{{To: message.WrapperID}},
		})
		if err != nil {
			t.Fatalf("Install v%d: %v", v, err)
		}
		dir.SetReplicasV("C", v, message.WrapperID, []string{"pass-sink"})
	}

	notify := func(v uint64, k int, from string, vars map[string]string) {
		t.Helper()
		err := net.Send(context.Background(), "pass-host", &message.Message{
			Type: message.TypeNotify, Composite: "C", Version: v, Instance: fmt.Sprintf("i%d", k),
			From: from, To: "join", Vars: vars,
		})
		if err != nil {
			t.Fatalf("notify v%d i%d<-%s: %v", v, k, from, err)
		}
	}
	x := func(v uint64, k int) uint64 { return 1000*v + uint64(k) }

	// Phase 1: every instance half-arms its join and goes idle. The
	// synchronous network means each arrival (and any cap-hit
	// passivation it causes) completes before the next Send returns.
	for _, v := range versions {
		for k := 1; k <= passivateInstances; k++ {
			notify(v, k, "s1", map[string]string{"x": fmt.Sprint(x(v, k)), "s": "from-s1"})
		}
	}
	// Phase 2: the second arrival completes the clause. For passivated
	// instances this path MUST rehydrate from the journal first.
	for _, v := range versions {
		for k := 1; k <= passivateInstances; k++ {
			notify(v, k, "s2", map[string]string{"y": fmt.Sprint(2 * x(v, k)), "s": "from-s2"})
		}
	}

	got := map[string]map[string]string{}
	for len(got) < joins {
		select {
		case f := <-fired:
			got[f.params["x"]] = f.params
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d/%d joins fired (cap %d): a passivated instance was not rehydrated",
				len(got), joins, cap)
		}
	}
	return got, h
}

// TestPassivateRehydrateANDJoinDeterministic is the engine-level
// rehydration contract: half-armed AND-join instances forced out by a
// cap of 1 fire with parameters byte-identical to a run that never
// passivated — per-source bags, canonical merge order, and coverage
// masks all survive the disk round-trip.
func TestPassivateRehydrateANDJoinDeterministic(t *testing.T) {
	tight, tightHost := drivePassivateJoin(t, 1)
	roomy, roomyHost := drivePassivateJoin(t, passivateInstances*2)

	if !reflect.DeepEqual(tight, roomy) {
		t.Errorf("firing params diverge between tight and roomy caps:\n tight: %v\n roomy: %v", tight, roomy)
	}
	for k := 1; k <= passivateInstances; k++ {
		p, ok := tight[fmt.Sprint(k)]
		if !ok {
			t.Fatalf("instance with x=%d never fired", k)
		}
		if p["y"] != fmt.Sprint(2*k) {
			t.Errorf("x=%d fired with y=%q, want %d: per-source bag lost across passivation", k, p["y"], 2*k)
		}
		// Both sources carry s; the canonical (sorted-source) merge must
		// hold across the disk round-trip: s2 overrides s1.
		if p["s"] != "from-s2" {
			t.Errorf("x=%d fired with s=%q, want from-s2 (canonical merge violated after rehydrate)", k, p["s"])
		}
	}

	// 40 instance IDs over a 32-way striped table at cap 1 guarantee
	// at least 8 idle half-armed instances were passivated, and every
	// one of them fired above, so it was rehydrated.
	if got := tightHost.Passivated(); got == 0 {
		t.Error("tight cap passivated nothing; the pigeonhole guarantee is broken")
	}
	if got := tightHost.Rehydrated(); got == 0 {
		t.Error("tight cap rehydrated nothing despite passivations")
	}
	if got := tightHost.Evicted(); got != 0 {
		t.Errorf("tight cap EVICTED %d instances; with a journal, passivation must fully replace eviction", got)
	}
	if got := roomyHost.Passivated(); got != 0 {
		t.Errorf("roomy cap passivated %d instances, want 0", got)
	}
	// A miss in the passive index is not a rehydration: with nothing
	// passivated, every second arrival found its instance in RAM.
	if got := roomyHost.Rehydrated(); got != 0 {
		t.Errorf("roomy cap rehydrated %d instances, want 0", got)
	}
}

// TestPassiveIndexKeysThePlanVersion: instance IDs restart with every
// plan version, so v2's i7 is another execution than v1's i7 and must
// not rehydrate the state v1's i7 passivated. At cap 1 the join runs at
// v1 and v2 over the same IDs; every join of both versions fires, with
// its own version's bag.
func TestPassiveIndexKeysThePlanVersion(t *testing.T) {
	got, h := drivePassivateJoin(t, 1, 1, 2)
	for v := 1000; v <= 2000; v += 1000 {
		for k := 1; k <= passivateInstances; k++ {
			if p := got[fmt.Sprint(v+k)]; p["y"] != fmt.Sprint(2*(v+k)) {
				t.Errorf("x=%d fired with y=%q, want %d", v+k, p["y"], 2*(v+k))
			}
		}
	}
	if h.Passivated() == 0 || h.Rehydrated() == 0 {
		t.Errorf("passivated %d, rehydrated %d: the cap of 1 must send instances through the journal", h.Passivated(), h.Rehydrated())
	}
}
