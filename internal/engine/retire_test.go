package engine_test

// The instance lifecycle of docs/engine.md, "Instance lifecycle": on a
// host with no journal, an instance of a table the plan marks once leaves
// its coordinator when its round ends, and the cap — with its loud
// Evicted count — is left for the instances no plan can prove finished.

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"selfserv/internal/engine"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// lifecycle sums the lifecycle counters and table populations of a
// fabric's hosts.
type lifecycle struct {
	retired, evicted uint64
	seated, ringCap  int
}

func (f *fabric) lifecycle() lifecycle {
	var l lifecycle
	for _, h := range f.hosts {
		seated, ringCap := engine.TableStats(h)
		l.retired, l.evicted = l.retired+h.Retired(), l.evicted+h.Evicted()
		l.seated, l.ringCap = l.seated+seated, max(l.ringCap, ringCap)
	}
	return l
}

// retireShape is a chart every state of which fires once, its providers,
// and the check of the execution whose input was x = i.
type retireShape struct {
	chart *statechart.Statechart
	reg   *service.Registry
	check func(i int, out map[string]string) error
}

func retireShapes(n int) []retireShape {
	chainReg, parReg := service.NewRegistry(), service.NewRegistry()
	workload.RegisterChainProviders(chainReg, n, service.SimulatedOptions{})
	workload.RegisterParallelProviders(parReg, n, service.SimulatedOptions{})
	expect := func(name string, plus int) func(int, map[string]string) error {
		return func(i int, out map[string]string) error {
			if want := strconv.Itoa(i + plus); out[name] != want {
				return fmt.Errorf("%s = %q, want %s", name, out[name], want)
			}
			return nil
		}
	}
	return []retireShape{
		{workload.Chain(n), chainReg, expect("x", n)},
		{workload.Parallel(n), parReg, expect("y1", 1)},
	}
}

// TestFinishedOnceInstancesRetire: after N executions nothing is seated
// at any coordinator of a Chain(8) or a Parallel(8), every one of the 8N
// instances was retired and none evicted — below the cap and at it — and
// no stripe's eviction ring has grown past what 64 executions in flight
// at once made it. An instance retires before its round's notifications
// leave, so the counts are final when Execute returns. (With more in flight than the cap allows, a create may
// still evict an instance another create has just seated and not yet
// locked, as it always could: nothing is lost, its creator seats it again,
// but it is counted — so at cap 8 the burst's own count is not held to 0.)
func TestFinishedOnceInstancesRetire(t *testing.T) {
	const n, burst, more = 8, 64, 600
	for _, cap := range []int{512, 8} {
		for _, shape := range retireShapes(n) {
			t.Run(fmt.Sprintf("%s/cap%d", shape.chart.Name, cap), func(t *testing.T) {
				net := transport.NewInMem(transport.InMemOptions{})
				t.Cleanup(func() { net.Close() })
				f := buildFabricWith(t, net, shape.chart, shape.reg, engine.HostOptions{MaxInstancesPerState: cap})
				exec := func(ctx context.Context, i int) error {
					out, err := f.wrapper.Execute(ctx, map[string]string{"x": strconv.Itoa(i)})
					if err != nil {
						return err
					}
					return shape.check(i, out)
				}
				runConcurrent(t, burst, exec)
				first := f.lifecycle()
				ctx := ctxWithTimeout(t)
				for i := 0; i < more; i++ {
					if err := exec(ctx, i); err != nil {
						t.Fatalf("execution %d: %v", i, err)
					}
				}
				last := f.lifecycle()
				if cap < burst {
					last.evicted -= first.evicted
				}
				if last.seated != 0 || last.evicted != 0 || last.retired != n*(burst+more) {
					t.Errorf("%d executions left %d instance(s) seated, %d evicted and %d retired; want 0, 0 and %d",
						burst+more, last.seated, last.evicted, last.retired, n*(burst+more))
				}
				if last.ringCap > first.ringCap {
					t.Errorf("the widest eviction ring grew from %d to %d slots over %d executions", first.ringCap, last.ringCap, more)
				}
			})
		}
	}
}

// TestUnprovenStatesKeepCapEviction: the states of a loop, and Travel's
// CR behind its two alternative joins, may be notified again for all the
// plan knows, so their finished instances stay until the cap takes them —
// counted in Evicted, as ever — while Travel's other states retire.
func TestUnprovenStatesKeepCapEviction(t *testing.T) {
	const cap, execs = 4, 200
	opts := engine.HostOptions{MaxInstancesPerState: cap, Funcs: engine.Funcs(workload.TravelGuards())}
	ctx := ctxWithTimeout(t)

	t.Run("loop", func(t *testing.T) {
		reg := service.NewRegistry()
		b := service.NewSimulated("B", service.SimulatedOptions{})
		b.Handle("op", func(_ context.Context, p map[string]string) (map[string]string, error) {
			x, err := strconv.Atoi(p["x"])
			return map[string]string{"x": strconv.Itoa(x + 1)}, err
		})
		reg.Register(service.NewSimulated("A", service.SimulatedOptions{}).Echo("op"))
		reg.Register(b)
		net := transport.NewInMem(transport.InMemOptions{})
		t.Cleanup(func() { net.Close() })
		f := buildFabricWith(t, net, loopChart(), reg, opts)
		for i := 0; i < execs; i++ {
			if out, err := f.wrapper.Execute(ctx, map[string]string{"x": "0"}); err != nil || out["x"] != "3" {
				t.Fatalf("execution %d: x = %q, err %v", i, out["x"], err)
			}
		}
		if l := f.lifecycle(); l.retired != 0 || l.evicted == 0 || l.seated == 0 {
			t.Errorf("a loop's states: %d retired, %d evicted, %d seated; want 0, some, some", l.retired, l.evicted, l.seated)
		}
	})

	t.Run("travel", func(t *testing.T) {
		reg := service.NewRegistry()
		if _, err := workload.RegisterTravelProviders(reg, service.SimulatedOptions{}); err != nil {
			t.Fatal(err)
		}
		net := transport.NewInMem(transport.InMemOptions{})
		t.Cleanup(func() { net.Close() })
		f := buildFabricWith(t, net, workload.Travel(), reg, opts)
		for i := 0; i < execs; i++ { // melbourne: domestic, attraction far away, so CR fires
			if out, err := f.wrapper.Execute(ctx, workload.TravelRequest("u"+strconv.Itoa(i), "melbourne", true)); err != nil || out["carRef"] == "" {
				t.Fatalf("execution %d: carRef = %q, err %v", i, out["carRef"], err)
			}
		}
		cr := f.hosts["CarRental"]
		if seated, _ := engine.TableStats(cr); cr.Retired() != 0 || cr.Evicted() == 0 || seated == 0 {
			t.Errorf("CR: %d retired, %d evicted, %d seated; want 0, some, some", cr.Retired(), cr.Evicted(), seated)
		}
		if l := f.lifecycle(); l.evicted != cr.Evicted() || l.retired != 3*execs {
			t.Errorf("DFB, AS and AB: %d instance(s) evicted and %d retired, want 0 and %d", l.evicted-cr.Evicted(), l.retired, 3*execs)
		}
	})
}

// TestFaultedFiringIsNotRetired: an instance whose provider failed has
// not finished its round; it stays seated (its execution faulted, loudly)
// while the state before it, which did finish, is gone.
func TestFaultedFiringIsNotRetired(t *testing.T) {
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 1, service.SimulatedOptions{})
	broken := service.NewSimulated("svc2", service.SimulatedOptions{})
	broken.Handle("run", func(context.Context, map[string]string) (map[string]string, error) {
		return nil, fmt.Errorf("svc2 is down")
	})
	reg.Register(broken)
	f := buildFabric(t, workload.Chain(2), reg, nil)
	if _, err := f.wrapper.Execute(ctxWithTimeout(t), map[string]string{"x": "0"}); err == nil {
		t.Fatal("the execution completed over a failing provider")
	}
	s1, s2 := f.hosts["svc1"], f.hosts["svc2"]
	if seated, _ := engine.TableStats(s2); seated != 1 || s2.Retired() != 0 || s1.Retired() != 1 {
		t.Errorf("the faulted state has %d instance(s) seated and %d retired, the one before it %d retired; want 1, 0 and 1",
			seated, s2.Retired(), s1.Retired())
	}
}

// TestRetireStressEqualsCentral: 64 executions in flight at a cap of 8 —
// retire racing create, evict and the next instance's arrival in the same
// stripes — all complete, with the outputs the hub computes. Part of
// `make race`.
func TestRetireStressEqualsCentral(t *testing.T) {
	const n, inflight, rounds = 8, 64, 3
	for _, shape := range retireShapes(n) {
		t.Run(shape.chart.Name, func(t *testing.T) {
			net := transport.NewInMem(transport.InMemOptions{})
			t.Cleanup(func() { net.Close() })
			f := buildFabricWith(t, net, shape.chart, shape.reg, engine.HostOptions{MaxInstancesPerState: 8})
			central, err := newCentral(f.net, "central", f.dir, f.plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer central.Close()
			for r := 0; r < rounds; r++ {
				runConcurrent(t, inflight, func(ctx context.Context, i int) error {
					in := map[string]string{"x": strconv.Itoa(r*inflight + i)}
					want, err := central.Execute(ctx, in)
					if err != nil {
						return fmt.Errorf("central: %w", err)
					}
					got, err := f.wrapper.Execute(ctx, in)
					if err != nil {
						return err
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						return fmt.Errorf("p2p %v, central %v", got, want)
					}
					return nil
				})
			}
			if l := f.lifecycle(); l.seated != 0 || l.retired != n*inflight*rounds {
				t.Errorf("%d executions: %d instance(s) seated and %d retired, want 0 and %d", inflight*rounds, l.seated, l.retired, n*inflight*rounds)
			}
		})
	}
}
