// Package workload builds the statecharts and request mixes the platform
// runs outside its unit tests: the benchmark of record (bench/), the
// travel example (examples/travel), and the property and fault suites
// under internal/. It holds the paper's travel scenario (Fig 2) and
// parameterized families — chains, parallel fans, and random nested
// charts. Every chart is written with composer, the Service Editor in
// code, so pseudo-states and wiring are spelled in one place.
package workload

import (
	"fmt"
	"math/rand"

	"selfserv/internal/composer"
	"selfserv/internal/statechart"
)

// Travel returns the paper's Fig 2 composite service: a traveller books a
// domestic flight OR an international travel arrangement, in parallel
// with an attractions search and an accommodation booking (the latter is
// served by a community); when all three finish, a car is rented if the
// major attraction is far from the accommodation.
//
// Service names used (to be registered with the platform):
// DomesticFlightBooking, InternationalTravel, AttractionsSearch,
// AccommodationBooking (community), CarRental.
func Travel() *statechart.Statechart {
	b := composer.New("TravelPlanner").
		Input("customer", "string").
		Input("destination", "string").
		Input("departDate", "string").
		Input("returnDate", "string").
		Output("flightRef", "string").
		Output("accommodation", "string").
		Output("major_attraction", "string").
		Output("carRef", "string")
	root := b.Root()
	bookings := root.Concurrent("bookings").Named("Bookings")

	flight := bookings.Region("flightRegion")
	flight.Basic("DFB", "DomesticFlightBooking", "book").
		Named("Domestic Flight Booking").
		In("customer", "customer").In("dest", "destination").
		In("depart", "departDate").In("return", "returnDate").
		Out("ref", "flightRef")
	flight.Basic("ITA", "InternationalTravel", "arrange").
		Named("International Travel Arrangements").
		In("customer", "customer").In("dest", "destination").
		In("depart", "departDate").In("return", "returnDate").
		Out("ref", "flightRef").Out("insurance", "insuranceRef")
	flight.StartIf("DFB", "domestic(destination)").
		StartIf("ITA", "not domestic(destination)").
		End("DFB").End("ITA")

	bookings.SingleServiceRegion("asRegion", "AS", "AttractionsSearch", "search").
		Named("Attractions Search").
		In("dest", "destination").
		Out("top", "major_attraction").Out("distance", "attractionDistance")
	bookings.SingleServiceRegion("abRegion", "AB", "AccommodationBooking", "book").
		Named("Accommodation Booking").
		In("customer", "customer").In("dest", "destination").
		Out("addr", "accommodation")

	root.Basic("CR", "CarRental", "rent").
		Named("Car Rental").
		In("customer", "customer").In("addr", "accommodation").
		Out("car", "carRef")
	root.Start("bookings").
		TransitionIf("bookings", "CR", "not near(attractionDistance)").
		EndIf("bookings", "near(attractionDistance)").
		End("CR")
	return b.MustBuild()
}

// Chain returns a sequential composite of n basic states
// s1 -> s2 -> ... -> sn, each invoking service "svc<i>".run and threading
// a counter variable through: the benchmark's chain8 cells and the
// journal, redeploy and fleet suites run it.
func Chain(n int) *statechart.Statechart {
	if n < 1 {
		panic("workload: Chain needs n >= 1")
	}
	b := composer.New(fmt.Sprintf("Chain%d", n)).Input("x", "number").Output("x", "number")
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%d", i+1)
		b.Root().Basic(ids[i], fmt.Sprintf("svc%d", i+1), "run").In("x", "x").Out("x", "x")
	}
	b.Root().Sequence(ids...)
	return b.MustBuild()
}

// Parallel returns a composite with one AND-state of k single-service
// regions: AND(p1 || ... || pk), each region invoking service
// "svc<i>".run. The benchmark's parallel8 cell runs it to stress the
// start fan and the AND-join.
func Parallel(k int) *statechart.Statechart {
	if k < 2 {
		panic("workload: Parallel needs k >= 2")
	}
	b := composer.New(fmt.Sprintf("Parallel%d", k)).Input("x", "number").Output("y1", "number")
	par := b.Root().Concurrent("par")
	for i := 1; i <= k; i++ {
		id := fmt.Sprintf("p%d", i)
		par.SingleServiceRegion("r"+id, id, fmt.Sprintf("svc%d", i), "run").
			In("x", "x").Out("y", fmt.Sprintf("y%d", i))
	}
	b.Root().Start("par").End("par")
	return b.MustBuild()
}

// RandomOptions parameterize RandomChart.
type RandomOptions struct {
	// States is the approximate number of basic states (>= 1).
	States int
	// MaxDepth bounds composite nesting (1 = flat).
	MaxDepth int
	// BranchProb is the probability that a slot becomes an alternative
	// branch pair instead of a single state.
	BranchProb float64
	// ParallelProb is the probability that a slot becomes a concurrent
	// state (when depth allows).
	ParallelProb float64
	// Seed makes generation reproducible.
	Seed int64
}

// RandomChart generates a valid random statechart with roughly
// opts.States basic states, for the property suites (routing, statechart
// XML and clone, p2p ≡ central) and routing's generation benchmark.
// The same options always produce the same chart.
func RandomChart(opts RandomOptions) *statechart.Statechart {
	if opts.States < 1 {
		opts.States = 1
	}
	if opts.MaxDepth < 1 {
		opts.MaxDepth = 1
	}
	g := &randGen{
		rng:    rand.New(rand.NewSource(opts.Seed + 1)),
		opts:   opts,
		budget: opts.States,
	}
	b := composer.New(fmt.Sprintf("Random%d_%d", opts.States, opts.Seed)).
		Input("x", "number").Output("x", "number")
	g.fill(b.Root(), opts.MaxDepth, -1)
	return b.MustBuild()
}

type randGen struct {
	rng    *rand.Rand
	opts   RandomOptions
	budget int
	nextID int
}

// id names working states in creation order: n<i>, nc<i>, npar<i>.
func (g *randGen) id(kind string) string {
	g.nextID++
	return fmt.Sprintf("n%s%d", kind, g.nextID)
}

// fill wires slots working states (or alternative branches) in sequence
// from scope's initial to its final state; slots < 0 means "until the
// basic-state budget is spent" (the root, so charts reach the size).
func (g *randGen) fill(scope *composer.Scope, depth, slots int) {
	prev := scope.InitialID()
	for s := 0; slots < 0 && g.budget > 0 || s < slots; s++ {
		if slots >= 0 && g.budget <= 0 && s > 0 {
			break
		}
		if g.budget >= 2 && g.rng.Float64() < g.opts.BranchProb {
			// Alternative branch: prev splits to a/b on x parity; both join
			// in a basic state the budget may go negative for.
			a := g.slot(scope, depth)
			b := g.slot(scope, depth)
			join := g.basic(scope)
			scope.TransitionIf(prev, a, "x % 2 = 0").
				TransitionIf(prev, b, "x % 2 = 1").
				Transition(a, join).
				Transition(b, join)
			prev = join
			continue
		}
		st := g.slot(scope, depth)
		scope.Transition(prev, st)
		prev = st
	}
	scope.End(prev)
}

// slot adds the next working state to scope — a basic state, a nested
// compound of 1 to 3 slots, or a concurrent state of 2 or 3 such
// regions, depending on depth and dice — and returns its ID.
func (g *randGen) slot(scope *composer.Scope, depth int) string {
	if depth > 1 && g.budget >= 4 && g.rng.Float64() < g.opts.ParallelProb {
		k := 2 + g.rng.Intn(2)
		id := g.id("par")
		par := scope.Concurrent(id)
		for i := 0; i < k; i++ {
			g.fill(par.Region(g.id("c")), depth-1, 1+g.rng.Intn(3))
		}
		return id
	}
	if depth > 1 && g.budget >= 2 && g.rng.Float64() < 0.3 {
		id := g.id("c")
		g.fill(scope.Compound(id), depth-1, 1+g.rng.Intn(3))
		return id
	}
	return g.basic(scope)
}

// basic consumes one unit of budget and adds a basic state.
func (g *randGen) basic(scope *composer.Scope) string {
	g.budget--
	id := g.id("")
	scope.Basic(id, "svc_"+id, "run").In("x", "x").Out("x", "x")
	return id
}

// TravelRequest returns the input variable bag for one travel execution;
// the guards pick the branches from it. domestic is ignored: it stays
// only because bench/workloads.go spells the three-argument call
// (ROADMAP item 10).
func TravelRequest(customer, destination string, domestic bool) map[string]string {
	return map[string]string{
		"customer":    customer,
		"destination": destination,
		"departDate":  "2026-07-01",
		"returnDate":  "2026-07-14",
	}
}
