package engine_test

import (
	"fmt"
	"slices"
	"testing"

	"selfserv/internal/engine"
	"selfserv/internal/service"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// TestRandomChartsP2PEqualsCentral is a differential property test: for
// random sequential/branching statecharts (no concurrency, so dataflow is
// deterministic), the peer-to-peer engine and the hub baseline must
// produce identical outputs for identical inputs. Any divergence means
// one of the two interpreters of the routing plan is wrong. The hosts run
// at MaxInstancesPerState 8: every state of these charts is once, their
// x % 2 joins included, so nothing stays seated and nothing is evicted.
func TestRandomChartsP2PEqualsCentral(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			sc := workload.RandomChart(workload.RandomOptions{
				States: 12, MaxDepth: 3, BranchProb: 0.35, ParallelProb: 0, Seed: seed,
			})
			reg := service.NewRegistry()
			workload.RegisterIncrementProviders(reg, sc, service.SimulatedOptions{})
			net := transport.NewInMem(transport.InMemOptions{})
			t.Cleanup(func() { net.Close() })
			f := buildFabricWith(t, net, sc, reg, engine.HostOptions{MaxInstancesPerState: 8})
			central, err := newCentral(f.net, "central", f.dir, f.plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer central.Close()

			// Three rounds: 12 executions, past the cap of 8 if anything
			// stayed seated.
			for _, x := range slices.Repeat([]string{"0", "1", "2", "7"}, 3) {
				in := map[string]string{"x": x}
				p2pOut, err := f.wrapper.Execute(ctxWithTimeout(t), in)
				if err != nil {
					t.Fatalf("p2p x=%s: %v\nchart: %s", x, err, sc)
				}
				cenOut, err := central.Execute(ctxWithTimeout(t), in)
				if err != nil {
					t.Fatalf("central x=%s: %v\nchart: %s", x, err, sc)
				}
				if p2pOut["x"] != cenOut["x"] {
					t.Errorf("x=%s: p2p -> %q, central -> %q\nchart: %s",
						x, p2pOut["x"], cenOut["x"], sc)
				}
			}
			if l := f.lifecycleWhen(retiredAll); l.evicted != 0 || l.seated != 0 {
				t.Errorf("at cap 8: %d instance(s) evicted and %d seated, want 0 and 0\nchart: %s", l.evicted, l.seated, sc)
			}
		})
	}
}

// TestRandomParallelChartsBothComplete covers charts WITH concurrency:
// parallel regions share the in-out variable x, so the final value depends
// on merge order and cannot be compared across engines — but both engines
// must complete every execution without stalling or faulting (liveness of
// the AND-join synchronization) — at a cap of 8 instances per state,
// evicting nothing, since the parity successors of a concurrent state
// decide on one bag and retire fired or untaken.
func TestRandomParallelChartsBothComplete(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			sc := workload.RandomChart(workload.RandomOptions{
				States: 14, MaxDepth: 3, BranchProb: 0.3, ParallelProb: 0.4, Seed: seed,
			})
			reg := service.NewRegistry()
			workload.RegisterIncrementProviders(reg, sc, service.SimulatedOptions{})
			net := transport.NewInMem(transport.InMemOptions{})
			t.Cleanup(func() { net.Close() })
			f := buildFabricWith(t, net, sc, reg, engine.HostOptions{MaxInstancesPerState: 8})
			central, err := newCentral(f.net, "central", f.dir, f.plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer central.Close()

			for _, x := range slices.Repeat([]string{"0", "3"}, 5) {
				in := map[string]string{"x": x}
				if _, err := f.wrapper.Execute(ctxWithTimeout(t), in); err != nil {
					t.Fatalf("p2p x=%s: %v\nchart: %s", x, err, sc)
				}
				if _, err := central.Execute(ctxWithTimeout(t), in); err != nil {
					t.Fatalf("central x=%s: %v\nchart: %s", x, err, sc)
				}
			}
			if l := f.lifecycleWhen(retiredAll); l.evicted != 0 || l.seated != 0 {
				t.Errorf("at cap 8: %d instance(s) evicted and %d seated, want 0 and 0\nchart: %s", l.evicted, l.seated, sc)
			}
		})
	}
}

// TestInstanceEviction verifies that per-coordinator instance bookkeeping
// is bounded where the plan cannot prove an instance finished: the loop
// chart's states may always be notified again, so none retires, and with
// MaxInstancesPerState = 8 a long run of distinct executions evicts at
// the cap — finished instances, oldest first, each counted — and still
// computes every output.
func TestInstanceEviction(t *testing.T) {
	const cap, runs = 8, 100
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, "single-host", loopRegistry(), dir, engine.HostOptions{
		MaxInstancesPerState: cap,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	plan := installPlan(t, loopChart(3), 0, map[string]*engine.Host{"A": h, "B": h}).Plan
	w, err := newWrapper(net, "wrapper", dir, plan, engine.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	ctx := ctxWithTimeout(t)
	for i := 0; i < runs; i++ {
		out, err := w.Execute(ctx, map[string]string{"x": "0"})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if out["x"] != "3" {
			t.Fatalf("run %d: x = %q", i, out["x"])
		}
	}
	// Every instance of the two tables was evicted or is still seated; a
	// finish's loop re-check that races the next execution's create finds
	// the ID it evicted lost and seats nothing (currentLocked). The valve
	// opens only in a stripe holding two or more (getOrCreate), so the
	// tables end near the cap, not at it.
	if seated, _ := engine.TableStats(h); h.Retired() != 0 || h.Evicted() == 0 || h.Evicted()+uint64(seated) < 2*runs {
		t.Errorf("%d runs at cap %d: %d retired, %d evicted, %d seated; want 0, some, and %d or more evicted or seated",
			runs, cap, h.Retired(), h.Evicted(), seated, 2*runs)
	}
}
