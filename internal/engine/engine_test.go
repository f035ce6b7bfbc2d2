package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// fabric is a deployed peer-to-peer execution environment for one chart:
// one host per component service (the paper's topology), one wrapper.
type fabric struct {
	net     transport.Network
	dir     *engine.Directory
	hosts   map[string]*engine.Host // service name -> host
	wrapper *engine.Wrapper
	plan    *routing.Plan
}

// buildFabric deploys sc over a fresh in-memory network, one host per
// service, using reg for provider lookup on every host (providers are
// addressed by name, so sharing the registry is safe; each host still
// only runs its own coordinators).
func buildFabric(t testing.TB, sc *statechart.Statechart, reg *service.Registry, funcs engine.Funcs) *fabric {
	t.Helper()
	net := transport.NewInMem(transport.InMemOptions{})
	t.Cleanup(func() { net.Close() })
	return buildFabricOn(t, net, sc, reg, funcs)
}

func buildFabricOn(t testing.TB, net transport.Network, sc *statechart.Statechart, reg *service.Registry, funcs engine.Funcs) *fabric {
	t.Helper()
	return buildFabricWith(t, net, sc, reg, engine.HostOptions{Funcs: funcs})
}

// buildFabricWith is buildFabricOn with every host's options spelled out;
// the wrapper evaluates with the same guard functions.
func buildFabricWith(t testing.TB, net transport.Network, sc *statechart.Statechart, reg *service.Registry, opts engine.HostOptions) *fabric {
	t.Helper()
	funcs := opts.Funcs
	dir := engine.NewDirectory()
	hosts := map[string]*engine.Host{}
	for i, svc := range sc.Services() {
		addr := fmt.Sprintf("host-%s-%d", sanitizeAddr(svc), i)
		h, err := engine.NewHost(net, addr, reg, dir, opts)
		if err != nil {
			t.Fatalf("NewHost(%s): %v", svc, err)
		}
		t.Cleanup(func() { h.Close() })
		hosts[svc] = h
	}
	plan := installPlan(t, sc, 0, hosts).Plan
	w, err := newWrapper(net, "wrapper-"+sc.Name, dir, plan, funcs)
	if err != nil {
		t.Fatalf("NewWrapper: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return &fabric{net: net, dir: dir, hosts: hosts, wrapper: w, plan: plan}
}

// installPlan does to hosts what a rollout does: compile the chart once
// (routing.Compile), stamp the plan version, and install each state's
// compiled table on the host of its service.
func installPlan(t testing.TB, sc *statechart.Statechart, version uint64, hosts map[string]*engine.Host) *routing.CompiledPlan {
	t.Helper()
	compiled, err := routing.Compile(sc)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	compiled.SetVersion(version)
	for _, tbl := range compiled.Tables {
		h := hosts[tbl.Service]
		if h == nil {
			t.Fatalf("service %q (state %q) has no host", tbl.Service, tbl.State)
		}
		if err := h.InstallCompiled(sc.Name, tbl); err != nil {
			t.Fatalf("install %s: %v", tbl.State, err)
		}
	}
	return compiled
}

// newWrapper and newCentral compile plan and construct over the result —
// the two deploy steps production callers (core.Platform, selfserv run) make
// separately, so a plan with an ill-formed guard fails here either way.
func newWrapper(net transport.Network, addr string, dir *engine.Directory, plan *routing.Plan, funcs engine.Funcs) (*engine.Wrapper, error) {
	compiled, err := routing.CompilePlan(plan)
	if err != nil {
		return nil, err
	}
	return engine.NewWrapper(net, addr, dir, compiled, funcs)
}

func newCentral(net transport.Network, addr string, dir *engine.Directory, plan *routing.Plan, funcs engine.Funcs) (*engine.Central, error) {
	compiled, err := routing.CompilePlan(plan)
	if err != nil {
		return nil, err
	}
	return engine.NewCentral(net, addr, dir, compiled, funcs)
}

func sanitizeAddr(s string) string {
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			return r
		}
		return '-'
	}, s)
}

func ctxWithTimeout(t testing.TB) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestChainExecution(t *testing.T) {
	const n = 5
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, n, service.SimulatedOptions{})
	f := buildFabric(t, workload.Chain(n), reg, nil)
	out, err := f.wrapper.Execute(ctxWithTimeout(t), map[string]string{"x": "0"})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if out["x"] != "5" {
		t.Fatalf("x = %q, want 5 (outputs: %v)", out["x"], out)
	}
}

func TestParallelExecution(t *testing.T) {
	const k = 4
	reg := service.NewRegistry()
	workload.RegisterParallelProviders(reg, k, service.SimulatedOptions{})
	sc := workload.Parallel(k)
	// Declare all branch outputs so they survive projection.
	sc.Outputs = nil
	for i := 1; i <= k; i++ {
		sc.Outputs = append(sc.Outputs, statechart.Param{Name: fmt.Sprintf("y%d", i), Type: "number"})
	}
	f := buildFabric(t, sc, reg, nil)
	out, err := f.wrapper.Execute(ctxWithTimeout(t), map[string]string{"x": "10"})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	for i := 1; i <= k; i++ {
		want := fmt.Sprint(10 + i)
		if got := out[fmt.Sprintf("y%d", i)]; got != want {
			t.Errorf("y%d = %q, want %s (outputs: %v)", i, got, want, out)
		}
	}
}

// travelFabric builds the full travel deployment.
func travelFabric(t testing.TB) *fabric {
	t.Helper()
	reg := service.NewRegistry()
	if _, err := workload.RegisterTravelProviders(reg, service.SimulatedOptions{}); err != nil {
		t.Fatal(err)
	}
	return buildFabric(t, workload.Travel(), reg, engine.Funcs(workload.TravelGuards()))
}

func TestTravelDomesticNearAttraction(t *testing.T) {
	// Sydney: domestic flight, Opera House 2km away -> no car rental.
	f := travelFabric(t)
	out, err := f.wrapper.Execute(ctxWithTimeout(t), workload.TravelRequest("alice", "sydney", true))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if out["flightRef"] != "QF-ALI-SYD" {
		t.Errorf("flightRef = %q, want domestic booking", out["flightRef"])
	}
	if out["major_attraction"] != "Opera House" {
		t.Errorf("major_attraction = %q", out["major_attraction"])
	}
	if out["accommodation"] == "" {
		t.Error("no accommodation booked")
	}
	if out["carRef"] != "" {
		t.Errorf("carRef = %q, want none (attraction is near)", out["carRef"])
	}
}

func TestTravelDomesticFarAttraction(t *testing.T) {
	// Melbourne: domestic flight, Great Ocean Road 180km -> car rental.
	f := travelFabric(t)
	out, err := f.wrapper.Execute(ctxWithTimeout(t), workload.TravelRequest("bob", "melbourne", true))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if out["flightRef"] != "QF-BOB-MEL" {
		t.Errorf("flightRef = %q", out["flightRef"])
	}
	if out["carRef"] != "CAR-BOB" {
		t.Errorf("carRef = %q, want CAR-BOB (attraction is far)", out["carRef"])
	}
}

func TestTravelInternational(t *testing.T) {
	// Tokyo: international arrangements, Mount Fuji 100km -> car rental.
	f := travelFabric(t)
	out, err := f.wrapper.Execute(ctxWithTimeout(t), workload.TravelRequest("carol", "tokyo", false))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if out["flightRef"] != "INT-CAR-TOK" {
		t.Errorf("flightRef = %q, want international booking", out["flightRef"])
	}
	if out["carRef"] != "CAR-CAR" {
		t.Errorf("carRef = %q", out["carRef"])
	}
}

func TestTravelInternationalNear(t *testing.T) {
	// Paris: international, Louvre 3km -> no car rental.
	f := travelFabric(t)
	out, err := f.wrapper.Execute(ctxWithTimeout(t), workload.TravelRequest("dave", "paris", false))
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !strings.HasPrefix(out["flightRef"], "INT-") {
		t.Errorf("flightRef = %q", out["flightRef"])
	}
	if out["carRef"] != "" {
		t.Errorf("carRef = %q, want none", out["carRef"])
	}
}

func TestConcurrentInstances(t *testing.T) {
	f := travelFabric(t)
	ctx := ctxWithTimeout(t)
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dest := "sydney"
			if i%2 == 1 {
				dest = "melbourne"
			}
			out, err := f.wrapper.Execute(ctx, workload.TravelRequest(fmt.Sprintf("u%02d", i), dest, true))
			if err != nil {
				errs <- fmt.Errorf("instance %d: %w", i, err)
				return
			}
			wantCar := dest == "melbourne"
			if (out["carRef"] != "") != wantCar {
				errs <- fmt.Errorf("instance %d: carRef = %q, wantCar = %v", i, out["carRef"], wantCar)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestLoopExecution(t *testing.T) {
	// a -> b; b -> a while x < 3 (incrementing); b -> end when x >= 3.
	root := &statechart.State{
		ID: "root", Kind: statechart.KindCompound,
		Children: []*statechart.State{
			{ID: "init", Kind: statechart.KindInitial},
			{ID: "a", Kind: statechart.KindBasic, Service: "A", Operation: "op",
				Inputs:  []statechart.Binding{{Param: "x", Var: "x"}},
				Outputs: []statechart.Binding{{Param: "x", Var: "x"}}},
			{ID: "b", Kind: statechart.KindBasic, Service: "B", Operation: "op",
				Inputs:  []statechart.Binding{{Param: "x", Var: "x"}},
				Outputs: []statechart.Binding{{Param: "x", Var: "x"}}},
			{ID: "end", Kind: statechart.KindFinal},
		},
		Transitions: []statechart.Transition{
			{From: "init", To: "a"},
			{From: "a", To: "b"},
			{From: "b", To: "a", Condition: "x < 3"},
			{From: "b", To: "end", Condition: "x >= 3"},
		},
	}
	sc := &statechart.Statechart{
		Name:    "Looper",
		Inputs:  []statechart.Param{{Name: "x", Type: "number"}},
		Outputs: []statechart.Param{{Name: "x", Type: "number"}},
		Root:    root,
	}
	reg := service.NewRegistry()
	echo := func(name string) {
		s := service.NewSimulated(name, service.SimulatedOptions{})
		s.Echo("op")
		reg.Register(s)
	}
	echo("A")
	// B increments x.
	b := service.NewSimulated("B", service.SimulatedOptions{})
	b.Handle("op", func(_ context.Context, p map[string]string) (map[string]string, error) {
		var x float64
		fmt.Sscanf(p["x"], "%g", &x)
		return map[string]string{"x": fmt.Sprintf("%g", x+1)}, nil
	})
	reg.Register(b)

	f := buildFabric(t, sc, reg, nil)
	out, err := f.wrapper.Execute(ctxWithTimeout(t), map[string]string{"x": "0"})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if out["x"] != "3" {
		t.Fatalf("x = %q, want 3 (loop ran 3 times)", out["x"])
	}
}

func TestServiceFaultPropagates(t *testing.T) {
	reg := service.NewRegistry()
	s := service.NewSimulated("svc1", service.SimulatedOptions{})
	s.Handle("run", func(context.Context, map[string]string) (map[string]string, error) {
		return nil, fmt.Errorf("backend exploded")
	})
	reg.Register(s)
	f := buildFabric(t, workload.Chain(1), reg, nil)
	_, err := f.wrapper.Execute(ctxWithTimeout(t), map[string]string{"x": "0"})
	if !errors.Is(err, engine.ErrInstanceFault) {
		t.Fatalf("err = %v, want ErrInstanceFault", err)
	}
	if !strings.Contains(err.Error(), "backend exploded") {
		t.Fatalf("err %q should carry the cause", err)
	}
}

func TestNoStartConditionMatches(t *testing.T) {
	// Chart whose only entry is guarded false for this request.
	sc := workload.Chain(1)
	sc.Root.Transitions[0].Condition = "x > 100"
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 1, service.SimulatedOptions{})
	f := buildFabric(t, sc, reg, nil)
	_, err := f.wrapper.Execute(ctxWithTimeout(t), map[string]string{"x": "0"})
	if err == nil || !strings.Contains(err.Error(), "no start condition") {
		t.Fatalf("err = %v", err)
	}
}

func TestExecutionTimeout(t *testing.T) {
	reg := service.NewRegistry()
	slow := service.NewSimulated("svc1", service.SimulatedOptions{BaseLatency: time.Minute})
	slow.Echo("run")
	reg.Register(slow)
	f := buildFabric(t, workload.Chain(1), reg, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := f.wrapper.Execute(ctx, map[string]string{"x": "0"})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestDuplicateInstanceID(t *testing.T) {
	reg := service.NewRegistry()
	slow := service.NewSimulated("svc1", service.SimulatedOptions{BaseLatency: 200 * time.Millisecond})
	slow.Echo("run")
	reg.Register(slow)
	f := buildFabric(t, workload.Chain(1), reg, nil)
	ctx := ctxWithTimeout(t)
	done := make(chan error, 1)
	go func() {
		_, err := f.wrapper.ExecuteInstance(ctx, "same", map[string]string{"x": "0"})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := f.wrapper.ExecuteInstance(ctx, "same", map[string]string{"x": "0"}); err == nil {
		t.Fatal("duplicate instance accepted")
	}
	if err := <-done; err != nil {
		t.Fatalf("first instance: %v", err)
	}
}

func TestCommunityInsideComposite(t *testing.T) {
	// The travel fabric's AccommodationBooking is a community; verify the
	// booking went to one of its brands.
	f := travelFabric(t)
	out, err := f.wrapper.Execute(ctxWithTimeout(t), workload.TravelRequest("erin", "sydney", true))
	if err != nil {
		t.Fatal(err)
	}
	brand := strings.Fields(out["accommodation"])[0]
	switch brand {
	case "GrandHotel", "CityLodge", "HarbourInn":
	default:
		t.Fatalf("accommodation %q not booked via the community", out["accommodation"])
	}
}

func TestTransitionActionsApply(t *testing.T) {
	sc := workload.Chain(2)
	// After s1, set a derived variable used as s2's input expression.
	sc.Root.Transitions[1].Actions = []statechart.Assignment{{Var: "x", Expr: "x * 10"}}
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 2, service.SimulatedOptions{})
	f := buildFabric(t, sc, reg, nil)
	out, err := f.wrapper.Execute(ctxWithTimeout(t), map[string]string{"x": "1"})
	if err != nil {
		t.Fatal(err)
	}
	// s1: x=2; action: x=20; s2: x=21.
	if out["x"] != "21" {
		t.Fatalf("x = %q, want 21", out["x"])
	}
}

func TestCentralMatchesP2POutputs(t *testing.T) {
	reg := service.NewRegistry()
	if _, err := workload.RegisterTravelProviders(reg, service.SimulatedOptions{}); err != nil {
		t.Fatal(err)
	}
	funcs := engine.Funcs(workload.TravelGuards())
	f := buildFabric(t, workload.Travel(), reg, funcs)
	central, err := newCentral(f.net, "central", f.dir, f.plan, funcs)
	if err != nil {
		t.Fatalf("NewCentral: %v", err)
	}
	defer central.Close()

	for _, tc := range []struct {
		customer, dest string
	}{
		{"alice", "sydney"},
		{"bob", "melbourne"},
		{"carol", "tokyo"},
		{"dave", "paris"},
	} {
		req := workload.TravelRequest(tc.customer, tc.dest, true)
		p2p, err := f.wrapper.Execute(ctxWithTimeout(t), req)
		if err != nil {
			t.Fatalf("p2p %s: %v", tc.dest, err)
		}
		cen, err := central.Execute(ctxWithTimeout(t), req)
		if err != nil {
			t.Fatalf("central %s: %v", tc.dest, err)
		}
		for _, key := range []string{"flightRef", "major_attraction", "carRef"} {
			if p2p[key] != cen[key] {
				t.Errorf("%s: %s differs: p2p=%q central=%q", tc.dest, key, p2p[key], cen[key])
			}
		}
	}

	// A plan that declares no outputs returns the whole bag — minus the
	// reserved '$' metadata, on BOTH engines (the hub used to leak the
	// tenant tag into the result document).
	chain := workload.Chain(3)
	chain.Outputs = nil
	chainReg := service.NewRegistry()
	workload.RegisterChainProviders(chainReg, 3, service.SimulatedOptions{})
	fc := buildFabric(t, chain, chainReg, nil)
	hub, err := newCentral(fc.net, "central-chain", fc.dir, fc.plan, nil)
	if err != nil {
		t.Fatalf("NewCentral: %v", err)
	}
	defer hub.Close()
	req := map[string]string{"x": "0", engine.TenantVar: "acme"}
	want := map[string]string{"x": "3"}
	p2p, err := fc.wrapper.Execute(ctxWithTimeout(t), req)
	if err != nil {
		t.Fatalf("p2p chain: %v", err)
	}
	cen, err := hub.Execute(ctxWithTimeout(t), req)
	if err != nil {
		t.Fatalf("central chain: %v", err)
	}
	if !reflect.DeepEqual(p2p, want) || !reflect.DeepEqual(cen, want) {
		t.Errorf("tenant-tagged request, no declared outputs: p2p=%v central=%v, want both %v", p2p, cen, want)
	}
}

func TestCentralFaultPropagates(t *testing.T) {
	reg := service.NewRegistry()
	s := service.NewSimulated("svc1", service.SimulatedOptions{})
	s.Handle("run", func(context.Context, map[string]string) (map[string]string, error) {
		return nil, fmt.Errorf("central backend exploded")
	})
	reg.Register(s)
	f := buildFabric(t, workload.Chain(1), reg, nil)
	central, err := newCentral(f.net, "central", f.dir, f.plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	_, err = central.Execute(ctxWithTimeout(t), map[string]string{"x": "0"})
	if !errors.Is(err, engine.ErrInstanceFault) {
		t.Fatalf("err = %v", err)
	}
}

func TestHubConcentratesLoad(t *testing.T) {
	// E7 sanity check: on Parallel(k), the busiest P2P node handles O(1)
	// messages per execution while the central hub handles ~2k.
	const k = 6
	regP2P := service.NewRegistry()
	workload.RegisterParallelProviders(regP2P, k, service.SimulatedOptions{})
	sc := workload.Parallel(k)

	p2pNet := transport.NewInMem(transport.InMemOptions{})
	defer p2pNet.Close()
	fp := buildFabricOn(t, p2pNet, sc, regP2P, nil)
	if _, err := fp.wrapper.Execute(ctxWithTimeout(t), map[string]string{"x": "0"}); err != nil {
		t.Fatal(err)
	}
	_, p2pBusiest := p2pNet.Stats().Busiest()

	cenNet := transport.NewInMem(transport.InMemOptions{})
	defer cenNet.Close()
	fc := buildFabricOn(t, cenNet, sc, regP2P, nil)
	central, err := newCentral(cenNet, "central", fc.dir, fc.plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer central.Close()
	if _, err := central.Execute(ctxWithTimeout(t), map[string]string{"x": "0"}); err != nil {
		t.Fatal(err)
	}
	hub := cenNet.Stats().Nodes["central"]
	hubTraffic := hub.MsgsIn + hub.MsgsOut
	p2pTraffic := p2pBusiest.MsgsIn + p2pBusiest.MsgsOut

	if hubTraffic < int64(2*k) {
		t.Fatalf("hub traffic = %d, want >= %d (2 messages per invocation)", hubTraffic, 2*k)
	}
	// The busiest P2P node is the wrapper (k starts + k dones = 2k) —
	// but no *coordinator* node sees more than a constant number.
	var worstCoord int64
	for addr, ns := range p2pNet.Stats().Nodes {
		if strings.HasPrefix(addr, "host-") {
			if tr := ns.MsgsIn + ns.MsgsOut; tr > worstCoord {
				worstCoord = tr
			}
		}
	}
	if worstCoord > 4 {
		t.Fatalf("busiest coordinator handles %d messages; want O(1) per execution", worstCoord)
	}
	_ = p2pTraffic
}

func TestTCPEndToEndTravel(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	reg := service.NewRegistry()
	if _, err := workload.RegisterTravelProviders(reg, service.SimulatedOptions{}); err != nil {
		t.Fatal(err)
	}
	net := transport.NewTCP()
	defer net.Close()
	dir := engine.NewDirectory()
	funcs := engine.Funcs(workload.TravelGuards())
	sc := workload.Travel()
	hosts := map[string]*engine.Host{}
	for _, svc := range sc.Services() {
		h, err := engine.NewHost(net, "127.0.0.1:0", reg, dir, engine.HostOptions{Funcs: funcs})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		hosts[svc] = h
	}
	w, err := newWrapper(net, "127.0.0.1:0", dir, installPlan(t, sc, 0, hosts).Plan, funcs)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	out, err := w.Execute(ctxWithTimeout(t), workload.TravelRequest("tina", "melbourne", true))
	if err != nil {
		t.Fatalf("Execute over TCP: %v", err)
	}
	if out["flightRef"] != "QF-TIN-MEL" || out["carRef"] != "CAR-TIN" {
		t.Fatalf("outputs = %v", out)
	}
}

func TestHostInstallRequiresLocalService(t *testing.T) {
	reg := service.NewRegistry() // empty: service not present
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, "h1", reg, dir, engine.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	err = engine.InstallTable(h, "C", &routing.Table{State: "s", Service: "missing", Operation: "op"})
	if err == nil {
		t.Fatal("Install accepted a table for an absent service")
	}
}

func TestHostStates(t *testing.T) {
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 2, service.SimulatedOptions{})
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, "h1", reg, dir, engine.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	both := map[string]*engine.Host{"svc1": h, "svc2": h}
	installPlan(t, workload.Chain(2), 0, both)
	// The same states in a second plan version are not listed twice.
	installPlan(t, workload.Chain(2), 2, both)
	if got, want := h.States(), map[string][]string{"Chain2": {"s1", "s2"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("States = %v, want %v", got, want)
	}
	h.Uninstall("Chain2", "s1", 0)
	h.Uninstall("Chain2", "s1", 2)
	if got := h.States()["Chain2"]; len(got) != 1 || got[0] != "s2" {
		t.Fatalf("States after Uninstall = %v", got)
	}
	// A composite with nothing left installed is absent, not empty.
	h.RetireVersion("Chain2", 0)
	h.RetireVersion("Chain2", 2)
	if got := h.States(); len(got) != 0 {
		t.Fatalf("States after retiring every version = %v", got)
	}
}

func BenchmarkP2PChain8(b *testing.B) {
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 8, service.SimulatedOptions{})
	f := buildFabric(b, workload.Chain(8), reg, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.wrapper.Execute(ctx, map[string]string{"x": "0"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkP2PTravel(b *testing.B) {
	reg := service.NewRegistry()
	if _, err := workload.RegisterTravelProviders(reg, service.SimulatedOptions{}); err != nil {
		b.Fatal(err)
	}
	f := buildFabric(b, workload.Travel(), reg, engine.Funcs(workload.TravelGuards()))
	ctx := context.Background()
	req := workload.TravelRequest("bench", "melbourne", true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.wrapper.Execute(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
