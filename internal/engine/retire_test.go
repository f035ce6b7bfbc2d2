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
	"time"

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

// lifecycleWhen is lifecycle once done holds of it, or after five
// seconds: an untaken CR may hear its last notification after the
// wrapper has finished without it, so its retire can trail Execute.
func (f *fabric) lifecycleWhen(done func(lifecycle) bool) lifecycle {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if l := f.lifecycle(); done(l) || time.Now().After(deadline) {
			return l
		}
	}
}

// retiredAll is a lifecycleWhen condition: nothing is seated any more.
func retiredAll(l lifecycle) bool { return l.seated == 0 }

// retireShape is a chart every state of which fires once, its providers
// and guard functions, the instances one execution retires, whether one
// of them may be untaken, and the input and the check of execution i.
type retireShape struct {
	chart   *statechart.Statechart
	reg     *service.Registry
	funcs   engine.Funcs
	retires int
	untaken bool
	in      func(i int) map[string]string
	check   func(i int, out map[string]string) error
}

// travelRoutes mixes Travel's four routes: domestic or international,
// the attraction far (CR fires) or near (CR is untaken).
var travelRoutes = []string{"melbourne", "sydney", "tokyo", "paris"}

func retireShapes(n int) []retireShape {
	chainReg, parReg, travelReg := service.NewRegistry(), service.NewRegistry(), service.NewRegistry()
	workload.RegisterChainProviders(chainReg, n, service.SimulatedOptions{})
	workload.RegisterParallelProviders(parReg, n, service.SimulatedOptions{})
	// One accommodation provider, not the community: its pick among three
	// brands would make the outputs differ from the hub's.
	for _, svc := range []*service.Simulated{service.NewDomesticFlightBooking(service.SimulatedOptions{}),
		service.NewInternationalTravel(service.SimulatedOptions{}), service.NewAttractionsSearch(service.SimulatedOptions{}),
		service.NewCarRental(service.SimulatedOptions{}), service.NewAccommodationBooking("AccommodationBooking", service.SimulatedOptions{})} {
		travelReg.Register(svc)
	}
	x := func(i int) map[string]string { return map[string]string{"x": strconv.Itoa(i)} }
	expect := func(name string, plus int) func(int, map[string]string) error {
		return func(i int, out map[string]string) error {
			if want := strconv.Itoa(i + plus); out[name] != want {
				return fmt.Errorf("%s = %q, want %s", name, out[name], want)
			}
			return nil
		}
	}
	return []retireShape{
		{workload.Chain(n), chainReg, nil, n, false, x, expect("x", n)},
		{workload.Parallel(n), parReg, nil, n, false, x, expect("y1", 1)},
		// AB, AS, DFB or ITA, and CR — fired or untaken — retire.
		{workload.Travel(), travelReg, engine.Funcs(workload.TravelGuards()), 4, true, func(i int) map[string]string {
			return workload.TravelRequest("u"+strconv.Itoa(i), travelRoutes[i%len(travelRoutes)], true)
		}, func(i int, out map[string]string) error {
			if far := i%2 == 0; (out["carRef"] != "") != far || out["flightRef"] == "" {
				return fmt.Errorf("%s: flightRef %q, carRef %q", travelRoutes[i%len(travelRoutes)], out["flightRef"], out["carRef"])
			}
			return nil
		}},
	}
}

// settled is f's lifecycle once the executions that have returned are
// over: at once, or — for a shape with an untaken end — once nothing is
// seated (lifecycleWhen).
func (s retireShape) settled(f *fabric) lifecycle {
	if s.untaken {
		return f.lifecycleWhen(retiredAll)
	}
	return f.lifecycle()
}

// TestFinishedOnceInstancesRetire: after N executions nothing is seated
// at any coordinator of a Chain(8), a Parallel(8) or Travel, every one of
// their instances was retired and none evicted — below the cap and at it — and
// no stripe's eviction ring has grown past what 64 executions in flight
// at once made it. A fired instance retires before its round's
// notifications leave, so the counts are final when Execute returns;
// Travel's untaken CR may trail it (settled). (With more in flight than
// the cap allows, a create may still evict an instance another create has
// just seated and not yet locked, as it always could: nothing is lost, its
// creator seats it again, but it is counted — so at cap 8 the burst's own
// count is not held to 0.)
func TestFinishedOnceInstancesRetire(t *testing.T) {
	const n, burst, more = 8, 64, 600
	for _, cap := range []int{512, 8} {
		for _, shape := range retireShapes(n) {
			cap := cap
			if shape.untaken {
				// A CR instance waiting for its third notification is live,
				// and a table over its cap may evict it (docs/engine.md), so
				// CR's table must hold a burst and the untaken instances of
				// the burst before it still hearing their last notification.
				cap = max(cap, 2*burst)
			}
			t.Run(fmt.Sprintf("%s/cap%d", shape.chart.Name, cap), func(t *testing.T) {
				net := transport.NewInMem(transport.InMemOptions{})
				t.Cleanup(func() { net.Close() })
				f := buildFabricWith(t, net, shape.chart, shape.reg, engine.HostOptions{MaxInstancesPerState: cap, Funcs: shape.funcs})
				exec := func(ctx context.Context, i int) error {
					out, err := f.wrapper.Execute(ctx, shape.in(i))
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
				want := uint64(shape.retires * (burst + more))
				last := shape.settled(f)
				if cap < burst {
					last.evicted -= first.evicted
				}
				if last.seated != 0 || last.evicted != 0 || last.retired != want {
					t.Errorf("%d executions left %d instance(s) seated, %d evicted and %d retired; want 0, 0 and %d",
						burst+more, last.seated, last.evicted, last.retired, want)
				}
				if last.ringCap > first.ringCap {
					t.Errorf("the widest eviction ring grew from %d to %d slots over %d executions", first.ringCap, last.ringCap, more)
				}
			})
		}
	}
}

// loopRegistry serves loopChart: a echoes x and b adds one, so an
// execution from x = 0 goes round three times and ends with x = 3.
func loopRegistry() *service.Registry {
	reg := service.NewRegistry()
	b := service.NewSimulated("B", service.SimulatedOptions{})
	b.Handle("op", func(_ context.Context, p map[string]string) (map[string]string, error) {
		x, err := strconv.Atoi(p["x"])
		return map[string]string{"x": strconv.Itoa(x + 1)}, err
	})
	reg.Register(service.NewSimulated("A", service.SimulatedOptions{}).Echo("op"))
	reg.Register(b)
	return reg
}

// TestUnprovenStatesKeepCapEviction: the states of a loop may be
// notified again for all the plan knows, so their finished instances stay
// until the cap takes them — counted in Evicted, as ever. Travel, whose
// CR the plan proves once too, leaves nothing behind at the same cap:
// CR retires after its round when the attraction is far (melbourne) and
// untaken when it is near (sydney).
func TestUnprovenStatesKeepCapEviction(t *testing.T) {
	const cap, execs = 4, 200
	opts := engine.HostOptions{MaxInstancesPerState: cap, Funcs: engine.Funcs(workload.TravelGuards())}
	ctx := ctxWithTimeout(t)

	t.Run("loop", func(t *testing.T) {
		net := transport.NewInMem(transport.InMemOptions{})
		t.Cleanup(func() { net.Close() })
		f := buildFabricWith(t, net, loopChart(3), loopRegistry(), opts)
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
		for i := 0; i < execs; i++ {
			dest, car := "melbourne", true // domestic, the attraction far away: CR fires
			if i%2 == 1 {
				dest, car = "sydney", false // domestic, the attraction near: CR is untaken
			}
			if out, err := f.wrapper.Execute(ctx, workload.TravelRequest("u"+strconv.Itoa(i), dest, true)); err != nil || (out["carRef"] != "") != car {
				t.Fatalf("execution %d (%s): carRef = %q, err %v", i, dest, out["carRef"], err)
			}
		}
		l := f.lifecycleWhen(retiredAll)
		if l.evicted != 0 || l.seated != 0 {
			t.Errorf("Travel at cap %d: %d evicted and %d seated, want 0 and 0", cap, l.evicted, l.seated)
		}
		// AB, AS, DFB and CR each retire one instance per execution; ITA,
		// which no domestic execution notifies, has none.
		for svc, want := range map[string]uint64{"AccommodationBooking": execs, "AttractionsSearch": execs, "DomesticFlightBooking": execs, "CarRental": execs, "InternationalTravel": 0} {
			if h := f.hosts[svc]; h.Retired() != want {
				t.Errorf("%s: %d retired, want %d", svc, h.Retired(), want)
			}
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

// TestRetireStressEqualsCentral: executions in flight at a cap of 8 —
// retire racing create, evict and the next instance's arrival in the same
// stripes — all complete, with the outputs the hub computes. Chain and
// Parallel run 64 at a time, so the cap's valve opens; Travel runs 4 at a
// time, so that CR's live joins fit the cap (evicting one would lose it)
// while its untaken retires race the next executions' creates. Part of
// `make race`.
func TestRetireStressEqualsCentral(t *testing.T) {
	const n = 8
	for _, shape := range retireShapes(n) {
		inflight, rounds := 64, 3
		if shape.untaken {
			inflight, rounds = 4, 48
		}
		t.Run(shape.chart.Name, func(t *testing.T) {
			net := transport.NewInMem(transport.InMemOptions{})
			t.Cleanup(func() { net.Close() })
			f := buildFabricWith(t, net, shape.chart, shape.reg, engine.HostOptions{MaxInstancesPerState: 8, Funcs: shape.funcs})
			central, err := newCentral(f.net, "central", f.dir, f.plan, shape.funcs)
			if err != nil {
				t.Fatal(err)
			}
			defer central.Close()
			for r := 0; r < rounds; r++ {
				runConcurrent(t, inflight, func(ctx context.Context, i int) error {
					in := shape.in(r*inflight + i)
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
			want := uint64(shape.retires * inflight * rounds)
			l := shape.settled(f)
			if l.seated != 0 || l.retired != want {
				t.Errorf("%d executions: %d instance(s) seated and %d retired, want 0 and %d", inflight*rounds, l.seated, l.retired, want)
			}
		})
	}
}
