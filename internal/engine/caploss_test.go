package engine_test

// The cap cascade (ROADMAP item 18), made deterministic. A journal-less
// coordinator at MaxInstancesPerState that must seat one more instance
// drops the oldest idle one. That victim may be a live join its execution
// is waiting for; before, that execution hung until its deadline, and the
// victim's late notifications built fresh, partial instances that could
// never fire and held the table's slots for good.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/service"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// gatedProvider holds every invocation until gate is closed: a source
// whose notification comes late.
type gatedProvider struct {
	service.Provider
	gate chan struct{}
}

func (g gatedProvider) Invoke(ctx context.Context, req service.Request) (service.Response, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return service.Response{}, ctx.Err()
	}
	return g.Provider.Invoke(ctx, req)
}

// TestLostJoinFaultsAtOnceAndStaysLost: Travel at a cap of 4. One far,
// domestic execution leaves CR's join waiting for DFB, which is held;
// then four near, international executions each leave CR a partial
// instance while their ITA is held. The fifth instance in the stripe
// evicts the oldest, the far execution's live join. That execution fails
// at once with ErrInstanceLost, and when DFB's notification reaches CR
// late, it is refused and counted rather than seated: once the held
// sources finish, CR holds nothing, with exactly the one eviction.
func TestLostJoinFaultsAtOnceAndStaysLost(t *testing.T) {
	const cap = 4
	dfb, ita := make(chan struct{}), make(chan struct{})
	reg := service.NewRegistry()
	for _, p := range []service.Provider{
		service.NewAttractionsSearch(service.SimulatedOptions{}),
		service.NewCarRental(service.SimulatedOptions{}),
		service.NewAccommodationBooking("AccommodationBooking", service.SimulatedOptions{}),
		gatedProvider{service.NewDomesticFlightBooking(service.SimulatedOptions{}), dfb},
		gatedProvider{service.NewInternationalTravel(service.SimulatedOptions{}), ita},
	} {
		reg.Register(p)
	}
	net := transport.NewInMem(transport.InMemOptions{})
	t.Cleanup(func() { net.Close() })
	f := buildFabricWith(t, net, workload.Travel(), reg,
		engine.HostOptions{MaxInstancesPerState: cap, Funcs: engine.Funcs(workload.TravelGuards())})
	cr := f.hosts["CarRental"]
	seated := func() int { n, _ := engine.TableStats(cr); return n }
	wait := func(cond func() bool, what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (CR: %d seated, %d evicted, %d refused)",
					what, seated(), cr.Evicted(), cr.Refused())
			}
		}
	}
	// Five IDs in one stripe, so that the fifth create evicts from it.
	ids := []string{"lost"}
	for i := 0; len(ids) <= cap; i++ {
		if id := fmt.Sprintf("near%d", i); engine.InstanceStripe(id) == engine.InstanceStripe(ids[0]) {
			ids = append(ids, id)
		}
	}
	ctx := ctxWithTimeout(t)

	lost := make(chan error, 1)
	go func() {
		_, err := f.wrapper.ExecuteInstance(ctx, ids[0], workload.TravelRequest("lost", "melbourne", true))
		lost <- err
	}()
	wait(func() bool { return seated() == 1 }, "the far execution's join at CR")
	near := make(chan error, cap)
	for i, id := range ids[1:] {
		go func() {
			out, err := f.wrapper.ExecuteInstance(ctx, id, workload.TravelRequest(id, "paris", false))
			if err == nil && out["carRef"] != "" {
				err = fmt.Errorf("a near execution rented a car: %v", out)
			}
			near <- err
		}()
		if i < cap-1 {
			wait(func() bool { return seated() == i+2 }, fmt.Sprintf("near execution %d's instance at CR", i))
		}
	}
	wait(func() bool { return cr.Evicted() == 1 }, "the eviction at the cap")
	select {
	case err := <-lost:
		if !errors.Is(err, engine.ErrInstanceLost) || !errors.Is(err, engine.ErrInstanceFault) {
			t.Fatalf("the evicted execution returned %v, want ErrInstanceLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the execution whose join was evicted still waits")
	}

	close(dfb) // the lost execution's DFB now notifies CR: a late frame
	close(ita)
	for range cap {
		if err := <-near; err != nil {
			t.Fatalf("near execution: %v", err)
		}
	}
	wait(func() bool { return seated() == 0 && cr.Refused() == 1 }, "CR to retire the near executions and refuse the late frame")
	if cr.Evicted() != 1 {
		t.Errorf("CR evicted %d instances, want the one", cr.Evicted())
	}
}
