package engine_test

import (
	"fmt"
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
// one of the two interpreters of the routing plan is wrong.
func TestRandomChartsP2PEqualsCentral(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			sc := workload.RandomChart(workload.RandomOptions{
				States: 12, MaxDepth: 3, BranchProb: 0.35, ParallelProb: 0, Seed: seed,
			})
			reg := service.NewRegistry()
			workload.RegisterIncrementProviders(reg, sc, service.SimulatedOptions{})
			f := buildFabric(t, sc, reg, nil)
			central, err := newCentral(f.net, "central", f.dir, f.plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer central.Close()

			for _, x := range []string{"0", "1", "2", "7"} {
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
		})
	}
}

// TestRandomParallelChartsBothComplete covers charts WITH concurrency:
// parallel regions share the in-out variable x, so the final value depends
// on merge order and cannot be compared across engines — but both engines
// must complete every execution without stalling or faulting (liveness of
// the AND-join synchronization).
func TestRandomParallelChartsBothComplete(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			sc := workload.RandomChart(workload.RandomOptions{
				States: 14, MaxDepth: 3, BranchProb: 0.3, ParallelProb: 0.4, Seed: seed,
			})
			reg := service.NewRegistry()
			workload.RegisterIncrementProviders(reg, sc, service.SimulatedOptions{})
			f := buildFabric(t, sc, reg, nil)
			central, err := newCentral(f.net, "central", f.dir, f.plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer central.Close()

			for _, x := range []string{"0", "3"} {
				in := map[string]string{"x": x}
				if _, err := f.wrapper.Execute(ctxWithTimeout(t), in); err != nil {
					t.Fatalf("p2p x=%s: %v\nchart: %s", x, err, sc)
				}
				if _, err := central.Execute(ctxWithTimeout(t), in); err != nil {
					t.Fatalf("central x=%s: %v\nchart: %s", x, err, sc)
				}
			}
		})
	}
}

// TestInstanceEviction verifies that per-coordinator instance bookkeeping
// is bounded: with MaxInstancesPerState = 8, a long run of distinct
// instances must still execute correctly (eviction only discards finished
// instances in FIFO order).
func TestInstanceEviction(t *testing.T) {
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 2, service.SimulatedOptions{})
	sc := workload.Chain(2)

	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, "single-host", reg, dir, engine.HostOptions{
		MaxInstancesPerState: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	plan := installPlan(t, sc, 0, map[string]*engine.Host{"svc1": h, "svc2": h}).Plan
	w, err := newWrapper(net, "wrapper", dir, plan, engine.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	ctx := ctxWithTimeout(t)
	for i := 0; i < 100; i++ {
		out, err := w.Execute(ctx, map[string]string{"x": "0"})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if out["x"] != "2" {
			t.Fatalf("run %d: x = %q", i, out["x"])
		}
	}
}
