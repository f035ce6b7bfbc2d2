package workload

import (
	"context"
	"fmt"
	"strconv"

	"selfserv/internal/community"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
)

// RegisterTravelProviders registers the five component services of the
// travel scenario in reg: four elementary services and the
// AccommodationBooking community (three hotel brands behind a QoS
// delegation policy), matching the demo where "Accommodation Booking is a
// service community, while others are elementary services". It returns
// the community for experiment instrumentation.
func RegisterTravelProviders(reg *service.Registry, opts service.SimulatedOptions) (*community.Community, error) {
	reg.Register(service.NewDomesticFlightBooking(opts))
	reg.Register(service.NewInternationalTravel(opts))
	reg.Register(service.NewAttractionsSearch(opts))
	reg.Register(service.NewCarRental(opts))
	return RegisterTravelCommunity(reg, opts)
}

// RegisterTravelCommunity registers just the AccommodationBooking
// community (three hotel brands behind a QoS policy with one failover).
func RegisterTravelCommunity(reg *service.Registry, opts service.SimulatedOptions) (*community.Community, error) {
	return RegisterTravelCommunityWith(reg, opts, community.Options{})
}

// RegisterTravelCommunityWith is RegisterTravelCommunity with explicit
// community options — hostd uses it to wire member breakers and
// availability observers from its flags. A nil Policy and zero Failover
// keep the standard QoS-with-one-failover configuration.
func RegisterTravelCommunityWith(reg *service.Registry, opts service.SimulatedOptions, commOpts community.Options) (*community.Community, error) {
	if commOpts.Policy == nil {
		commOpts.Policy = community.NewQoS(community.Weights{})
	}
	if commOpts.Failover == 0 {
		commOpts.Failover = 1
	}
	ab := community.New("AccommodationBooking", commOpts)
	for i, brand := range []string{"GrandHotel", "CityLodge", "HarbourInn"} {
		m := &community.Member{
			Provider:   service.NewAccommodationBooking(brand, opts),
			Cost:       float64(1 + i),
			Attributes: map[string]string{"brand": brand},
		}
		if err := ab.Join(m); err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
	}
	reg.Register(ab)
	return ab, nil
}

// RegisterChainProviders registers svc1..svcN, each incrementing the
// numeric variable x, so a Chain(n) execution started with x=0 finishes
// with x=n (an end-to-end dataflow check).
func RegisterChainProviders(reg *service.Registry, n int, opts service.SimulatedOptions) {
	for i := 1; i <= n; i++ {
		s := service.NewSimulated(fmt.Sprintf("svc%d", i), opts)
		s.Handle("run", incrementX)
		reg.Register(s)
	}
}

// RegisterParallelProviders registers svc1..svcK for Parallel(k), each
// returning y = x + i (distinct per branch).
func RegisterParallelProviders(reg *service.Registry, k int, opts service.SimulatedOptions) {
	for i := 1; i <= k; i++ {
		i := i
		s := service.NewSimulated(fmt.Sprintf("svc%d", i), opts)
		s.Handle("run", func(_ context.Context, p map[string]string) (map[string]string, error) {
			x, err := strconv.ParseFloat(p["x"], 64)
			if err != nil {
				return nil, fmt.Errorf("bad x %q: %w", p["x"], err)
			}
			return map[string]string{"y": strconv.FormatFloat(x+float64(i), 'g', -1, 64)}, nil
		})
		reg.Register(s)
	}
}

// RegisterIncrementProviders registers an "x+1" provider for every
// service referenced by sc (used by the differential tests that compare
// P2P against the central baseline on random charts).
func RegisterIncrementProviders(reg *service.Registry, sc *statechart.Statechart, opts service.SimulatedOptions) {
	for _, name := range sc.Services() {
		s := service.NewSimulated(name, opts)
		s.Handle("run", incrementX)
		reg.Register(s)
	}
}

func incrementX(_ context.Context, p map[string]string) (map[string]string, error) {
	x, err := strconv.ParseFloat(p["x"], 64)
	if err != nil {
		return nil, fmt.Errorf("bad x %q: %w", p["x"], err)
	}
	return map[string]string{"x": strconv.FormatFloat(x+1, 'g', -1, 64)}, nil
}
