package engine_test

// The concurrent-instance stress contract behind the lock-striped
// engine state (shard.go, docs/engine.md): one composite, many
// in-flight executions, every one must complete with the right outputs
// and none may observe another's variables. Runs as part of `make
// flake` (race detector, count=10, nightly in CI), where a missed
// shard/instance lock or a bag shared across instances shows up as a
// race report or a wrong output.

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"selfserv/internal/engine"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// TestConcurrentInstancesStress drives 64 concurrent Executes per
// composite shape — well past the shard count, so same-shard instances
// exercise the per-instance locking too — each instance with a DISTINCT
// input, and checks every output. Cross-instance state leakage (the bug
// class striping could introduce) corrupts an output deterministically:
// Chain's x threads through every hop, Parallel's y_i are per-branch
// sums of the instance's own x.
func TestConcurrentInstancesStress(t *testing.T) {
	const inflight = 64
	const k = 4

	t.Run("chain", func(t *testing.T) {
		reg := service.NewRegistry()
		workload.RegisterChainProviders(reg, k, service.SimulatedOptions{})
		f := buildFabric(t, workload.Chain(k), reg, nil)
		runConcurrent(t, inflight, func(ctx context.Context, i int) error {
			in := map[string]string{"x": strconv.Itoa(i * 100)}
			out, err := f.wrapper.Execute(ctx, in)
			if err != nil {
				return err
			}
			if want := strconv.Itoa(i*100 + k); out["x"] != want {
				return fmt.Errorf("instance %d: x = %q, want %s (cross-instance leak?)", i, out["x"], want)
			}
			return nil
		})
	})

	t.Run("parallel", func(t *testing.T) {
		reg := service.NewRegistry()
		workload.RegisterParallelProviders(reg, k, service.SimulatedOptions{})
		sc := workload.Parallel(k)
		sc.Outputs = nil
		for i := 1; i <= k; i++ {
			sc.Outputs = append(sc.Outputs, statechart.Param{Name: fmt.Sprintf("y%d", i), Type: "number"})
		}
		f := buildFabric(t, sc, reg, nil)
		runConcurrent(t, inflight, func(ctx context.Context, i int) error {
			in := map[string]string{"x": strconv.Itoa(i * 100)}
			out, err := f.wrapper.Execute(ctx, in)
			if err != nil {
				return err
			}
			for b := 1; b <= k; b++ {
				if want := strconv.Itoa(i*100 + b); out[fmt.Sprintf("y%d", b)] != want {
					return fmt.Errorf("instance %d: y%d = %q, want %s (cross-instance leak?)",
						i, b, out[fmt.Sprintf("y%d", b)], want)
				}
			}
			return nil
		})
	})
}

// TestTightCapConcurrentInstances pins the eviction gate of the sharded
// tables: with MaxInstancesPerState equal to the in-flight count, NO
// live instance may be evicted — eviction must key on the table's TOTAL
// population, not the shard's. (A per-shard bound of cap/shards would
// evict any two same-shard instances on sight at this cap, hanging
// their executions; 16 IDs over 32 shards collide with near certainty.)
func TestTightCapConcurrentInstances(t *testing.T) {
	const inflight = 16
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 2, service.SimulatedOptions{})
	sc := workload.Chain(2)

	net := transport.NewInMem(transport.InMemOptions{})
	t.Cleanup(func() { net.Close() })
	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, "tight-host", reg, dir, engine.HostOptions{
		MaxInstancesPerState: inflight,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	plan := installPlan(t, sc, 0, map[string]*engine.Host{"svc1": h, "svc2": h}).Plan
	w, err := newWrapper(net, "tight-wrapper", dir, plan, engine.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })

	runConcurrent(t, inflight, func(ctx context.Context, i int) error {
		out, err := w.Execute(ctx, map[string]string{"x": strconv.Itoa(i * 10)})
		if err != nil {
			return err
		}
		if want := strconv.Itoa(i*10 + 2); out["x"] != want {
			return fmt.Errorf("instance %d: x = %q, want %s", i, out["x"], want)
		}
		return nil
	})
}

// runConcurrent launches n executions at once and reports every failure.
func runConcurrent(t *testing.T, n int, exec func(ctx context.Context, i int) error) {
	t.Helper()
	ctx := ctxWithTimeout(t)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = exec(ctx, i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("execution %d: %v", i, err)
		}
	}
}
