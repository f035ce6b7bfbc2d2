package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"selfserv/internal/core"
	"selfserv/internal/engine"
	"selfserv/internal/expr"
	"selfserv/internal/journal"
	"selfserv/internal/message"
	"selfserv/internal/placement"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// This file times each layer's exported functions in isolation — the
// "iso" half of the per-layer metrics. Nothing here runs a composite end
// to end except the three fixtures that need a real journal or platform
// (journal.open/replay, core.recover, core.deploy).

// timeOp runs fn in calibrated batches for about budget and returns the
// median batch's nanoseconds per call and the heap allocations per call.
func timeOp(budget time.Duration, fn func()) (nsPerOp, allocsPerOp float64) {
	n := 1
	for n < 1<<20 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= 200*time.Microsecond {
			break
		}
		n *= 2
	}
	per := make([]float64, 0, 4096)
	ops := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(budget)
	for len(per) < 3 || (time.Now().Before(deadline) && len(per) < cap(per)) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(n))
		ops += n
	}
	runtime.ReadMemStats(&after)
	return median(per), float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// timeReps times fn reps times and returns the median duration.
func timeReps(reps int, fn func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds[i] = float64(d)
	}
	return time.Duration(median(ds)), nil
}

// isoTimers is how many timeOp calls isoMetrics makes (expr 2, message 7,
// transport 2, routing 3, placement 2, engine 3, service 1, journal 1);
// each gets an equal share of the budget.
const isoTimers = 21

// isoMetrics measures every iso per-layer metric, spending about budget.
func isoMetrics(budget time.Duration) (map[string]float64, error) {
	per := budget / isoTimers
	out := map[string]float64{}
	for _, layer := range []func(time.Duration, map[string]float64) error{
		isoExpr, isoMessage, isoTransport, isoRouting, isoPlacement,
		isoEngine, isoService, isoJournal, isoCore,
	} {
		if err := layer(per, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// travelBag is the variable bag a Travel execution carries by its last
// hop: the four inputs, every service's outputs and the tenant tag.
func travelBag() map[string]string {
	return map[string]string{
		"customer": "cust42", "destination": "melbourne",
		"departDate": "2026-07-01", "returnDate": "2026-07-14",
		"flightRef": "QF-CUS-MEL", "insuranceRef": "INS-CUS",
		"major_attraction": "Great Ocean Road", "attractionDistance": "180",
		"accommodation": "GrandHotel melbourne", engine.TenantVar: "t3",
	}
}

// hopMessage is the smallest document the workloads send: a Chain
// notification carrying one variable.
func hopMessage() *message.Message {
	return &message.Message{
		Type: message.TypeNotify, Composite: "Chain8", Instance: "i12345",
		From: "s3", To: "s4", Version: 1, Vars: map[string]string{"x": "3"},
	}
}

func compilePlan(chart *statechart.Statechart) (*routing.CompiledPlan, error) {
	plan, err := routing.Generate(chart)
	if err != nil {
		return nil, err
	}
	return routing.CompilePlan(plan)
}

// isoExpr evaluates and compiles the Travel plan's guards — the only
// non-constant guards any workload has.
func isoExpr(per time.Duration, out map[string]float64) error {
	cp, err := compilePlan(workload.Travel())
	if err != nil {
		return err
	}
	var guards []*expr.Program
	keep := func(p *expr.Program) {
		if p != nil {
			guards = append(guards, p)
		}
	}
	for _, t := range cp.Start {
		keep(t.Condition)
	}
	for _, tbl := range cp.Tables {
		for _, c := range tbl.Preconditions {
			keep(c.Condition)
		}
		for _, t := range tbl.Postprocessings {
			keep(t.Condition)
		}
	}
	for _, c := range cp.Finish {
		keep(c.Condition)
	}
	if len(guards) == 0 {
		return fmt.Errorf("expr: the Travel plan compiled to no guards")
	}
	sort.Slice(guards, func(i, j int) bool { return guards[i].Source() < guards[j].Source() })

	// The engine's two-layer environment: a text-variable layer over the
	// composite's shared function layer, rebuilt per evaluation.
	bag := travelBag()
	funcs := expr.FuncsEnv(workload.TravelGuards())
	var evalErr error
	ns, allocs := timeOp(per, func() {
		for _, g := range guards {
			if _, err := g.EvalBool(expr.ChainEnv{expr.TextVars(bag), funcs}); err != nil {
				evalErr = err
			}
		}
	})
	if evalErr != nil {
		return fmt.Errorf("expr: eval: %w", evalErr)
	}
	out["expr.eval_ns"] = ns / float64(len(guards))
	out["expr.eval_allocs"] = allocs / float64(len(guards))

	ns, _ = timeOp(per, func() {
		for _, g := range guards {
			if _, err := expr.Compile(g.Source()); err != nil {
				evalErr = err
			}
		}
	})
	if evalErr != nil {
		return fmt.Errorf("expr: compile: %w", evalErr)
	}
	out["expr.compile_ns"] = ns / float64(len(guards))
	return nil
}

// isoMessage times the wire codec on the two documents the workloads
// send: a Chain notification (one variable) and a Travel notification
// (the full bag), plus an 8-message frame.
func isoMessage(per time.Duration, out map[string]float64) error {
	hop := hopMessage()
	bag := &message.Message{
		Type: message.TypeNotify, Composite: "TravelPlanner", Instance: "i12345",
		From: "AB", To: "CR", Version: 1, Vars: travelBag(),
	}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, fx := range []struct {
		name string
		m    *message.Message
	}{{"hop", hop}, {"bag", bag}} {
		data, err := message.Marshal(fx.m)
		if err != nil {
			return err
		}
		out["message."+fx.name+"_bytes"] = float64(len(data))
		out["message.marshal_"+fx.name+"_ns"], out["message.marshal_"+fx.name+"_allocs"] =
			timeOp(per, func() { _, err := message.Marshal(fx.m); note(err) })
		out["message.unmarshal_"+fx.name+"_ns"], out["message.unmarshal_"+fx.name+"_allocs"] =
			timeOp(per, func() { _, err := message.Unmarshal(data); note(err) })
	}
	batch := make([]*message.Message, 8)
	singles := make([][]byte, 8)
	for i := range batch {
		m := *hop
		m.To = "p" + strconv.Itoa(i+1)
		batch[i] = &m
		data, err := message.Marshal(&m)
		if err != nil {
			return err
		}
		singles[i] = data
	}
	frame, err := message.MarshalBatch(batch)
	if err != nil {
		return err
	}
	out["message.marshal_batch8_ns"], _ = timeOp(per, func() { _, err := message.MarshalBatch(batch); note(err) })
	out["message.unmarshal_batch8_ns"], _ = timeOp(per, func() { _, err := message.UnmarshalBatch(frame); note(err) })
	out["message.merge_batch8_ns"], _ = timeOp(per, func() { _, _, err := message.MergeBatch(singles); note(err) })
	return firstErr
}

// pingPong bounces one Chain notification between two endpoints of net:
// A sends, B's handler answers, A's handler ends the round trip. It
// reports the time the caller sits inside Send, half the round trip (Send
// entry to handler entry, one way) and the heap allocations per message.
func pingPong(net transport.Network, per time.Duration) (sendNs, onewayNs, allocs float64, err error) {
	m := hopMessage()
	ctx := context.Background()
	back := make(chan struct{}, 1)
	var sendErr error
	var addrA string
	var senderB transport.Sender
	epA, err := net.Listen(net.MintAddr("ping-a"), func(context.Context, *message.Message) { back <- struct{}{} })
	if err != nil {
		return 0, 0, 0, err
	}
	defer epA.Close()
	epB, err := net.Listen(net.MintAddr("ping-b"), func(ctx context.Context, _ *message.Message) {
		if err := senderB.Send(ctx, addrA, m); err != nil {
			sendErr = err
			back <- struct{}{}
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer epB.Close()
	addrA = epA.Addr()
	senderA, addrB := net.Open(epA.Addr()), epB.Addr()
	senderB = net.Open(addrB)

	var inSend time.Duration
	var sends int
	ns, mallocs := timeOp(per, func() {
		t0 := time.Now()
		if err := senderA.Send(ctx, addrB, m); err != nil {
			sendErr = err
			return
		}
		inSend += time.Since(t0)
		sends++
		<-back
	})
	if sendErr != nil {
		return 0, 0, 0, sendErr
	}
	return float64(inSend) / float64(sends), ns / 2, mallocs / 2, nil
}

func isoTransport(per time.Duration, out map[string]float64) error {
	for _, tr := range []struct {
		name string
		net  transport.Network
	}{
		{"inmem", transport.NewInMem(transport.InMemOptions{})},
		{"tcp", transport.NewTCP()},
	} {
		send, oneway, allocs, err := pingPong(tr.net, per)
		if cerr := tr.net.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("transport: %s ping-pong: %w", tr.name, err)
		}
		out["transport."+tr.name+"_send_ns"] = send
		out["transport."+tr.name+"_oneway_ns"] = oneway
		out["transport."+tr.name+"_send_allocs"] = allocs
	}
	return nil
}

func isoRouting(per time.Duration, out map[string]float64) error {
	chart := workload.Travel()
	plan, err := routing.Generate(chart)
	if err != nil {
		return err
	}
	var firstErr error
	ns, _ := timeOp(per, func() {
		if _, err := routing.Generate(chart); err != nil {
			firstErr = err
		}
	})
	out["routing.generate_us"] = ns / 1e3
	ns, _ = timeOp(per, func() {
		if _, err := routing.CompilePlan(plan); err != nil {
			firstErr = err
		}
	})
	out["routing.compile_plan_us"] = ns / 1e3
	if firstErr != nil {
		return firstErr
	}

	// Parallel(8)'s join is the wrapper's finish clause over 8 sources.
	cp, err := compilePlan(workload.Parallel(8))
	if err != nil {
		return err
	}
	if len(cp.Finish) != 1 || len(cp.Finish[0].Sources) != 8 {
		return fmt.Errorf("routing: Parallel(8) finish is not one 8-source clause: %v", cp.Plan.Finish)
	}
	pending := make([]uint64, cp.FinishMaskWords())
	for i := 0; i < cp.NumFinishSources(); i++ {
		pending[i>>6] |= 1 << (i & 63)
	}
	join := cp.Finish[0]
	covered := true
	out["routing.covered_ns"], _ = timeOp(per, func() { covered = covered && join.Covered(pending) })
	if !covered {
		return fmt.Errorf("routing: full mask does not cover the join")
	}
	return nil
}

// routingKeys are the (tenant, instance) keys the placement and directory
// timers cycle through.
func routingKeys() (tenants, instances []string) {
	for t := 0; t < 8; t++ {
		tenants = append(tenants, "t"+strconv.Itoa(t))
	}
	for i := 0; i < 1024; i++ {
		instances = append(instances, "i"+strconv.Itoa(i))
	}
	return tenants, instances
}

var replicaAddrs = []string{"replica-0", "replica-1", "replica-2"}

func isoPlacement(per time.Duration, out map[string]float64) error {
	pol := placement.Policy{ShardSize: 2}
	g := placement.Build(replicaAddrs, pol)
	tenants, instances := routingKeys()
	i := 0
	ok := true
	out["placement.pick_ns"], _ = timeOp(per, func() {
		_, found := g.Pick(tenants[i&7], instances[i&1023], pol)
		ok = ok && found
		i++
	})
	if !ok {
		return fmt.Errorf("placement: Pick found no replica")
	}
	out["placement.build_ns"], _ = timeOp(per, func() { g = placement.Build(replicaAddrs, pol) })
	return nil
}

func isoEngine(per time.Duration, out map[string]float64) error {
	dir := engine.NewDirectory()
	dir.SetPolicy(placement.Policy{ShardSize: 2})
	dir.SetReplicasV("C", 1, "one", replicaAddrs[:1])
	dir.SetReplicasV("C", 1, "three", replicaAddrs)
	tenants, instances := routingKeys()
	i := 0
	ok := true
	route := func(peer string) func() {
		return func() {
			_, found := dir.RouteV("C", 1, peer, instances[i&1023], tenants[i&7])
			ok = ok && found
			i++
		}
	}
	out["engine.route1_ns"], _ = timeOp(per, route("one"))
	out["engine.route3_ns"], out["engine.route_allocs"] = timeOp(per, route("three"))
	if !ok {
		return fmt.Errorf("engine: RouteV found no replica")
	}
	return isoHop(per, out)
}

// isoHop times one coordinator round on its own: a single engine.Host
// with Chain(3)'s middle state installed, on a synchronous in-memory
// network; a notification from s1 goes in, the provider is invoked, and
// the notification to s3 is observed at a sink endpoint.
func isoHop(per time.Duration, out map[string]float64) error {
	net := transport.NewInMem(transport.InMemOptions{Synchronous: true})
	defer net.Close()
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 3, service.SimulatedOptions{})
	dir := engine.NewDirectory()
	host, err := engine.NewHost(net, "hop-host", reg, dir, engine.HostOptions{})
	if err != nil {
		return err
	}
	defer host.Close()
	cp, err := compilePlan(workload.Chain(3))
	if err != nil {
		return err
	}
	if err := host.InstallCompiled("Chain3", cp.Tables["s2"]); err != nil {
		return err
	}
	seen := make(chan string, 1)
	sink, err := net.Listen("hop-sink", func(_ context.Context, m *message.Message) { seen <- m.Vars["x"] })
	if err != nil {
		return err
	}
	defer sink.Close()
	dir.Set("Chain3", "s3", sink.Addr())

	ctx := context.Background()
	vars := map[string]string{"x": "1"}
	n := 0
	var hopErr error
	ns, allocs := timeOp(per, func() {
		n++
		m := &message.Message{
			Type: message.TypeNotify, Composite: "Chain3", Instance: "i" + strconv.Itoa(n),
			From: "s1", To: "s2", Vars: vars,
		}
		if err := net.Send(ctx, host.Addr(), m); err != nil {
			hopErr = err
			return
		}
		if x := <-seen; x != "2" {
			hopErr = fmt.Errorf("hop delivered x=%q, want 2", x)
		}
	})
	if hopErr != nil {
		return fmt.Errorf("engine: hop: %w", hopErr)
	}
	out["engine.hop_us"] = ns / 1e3
	out["engine.hop_allocs"] = allocs
	return nil
}

func isoService(per time.Duration, out map[string]float64) error {
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 1, service.SimulatedOptions{})
	prov, err := reg.Lookup("svc1")
	if err != nil {
		return err
	}
	ctx := context.Background()
	req := service.Request{Service: "svc1", Operation: "run", Params: map[string]string{"x": "1"}}
	var invokeErr error
	out["service.invoke_ns"], _ = timeOp(per, func() {
		if _, err := prov.Invoke(ctx, req); err != nil {
			invokeErr = err
		}
	})
	return invokeErr
}

// journalRecords is the read-side fixture: the records 128 Chain(8)
// executions leave behind (27 each).
const (
	journalExecs   = 128
	journalRecords = journalExecs * 27
)

func isoJournal(per time.Duration, out map[string]float64) error {
	dir, err := os.MkdirTemp("", "selfserv-bench-append-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := journal.Options{Dir: dir, Fsync: journal.FsyncOff}
	j, err := journal.Open(opts)
	if err != nil {
		return err
	}
	// A Chain round record: what a coordinator appends once per firing.
	rec := &journal.Record{
		Kind: journal.KindRound, Composite: "Chain8", State: "s3", Instance: "i12345", Version: 1,
		FireSeq: 1, Consumed: []string{"s2"}, Cleared: []string{"s2"},
		Vars: map[string]string{"x": "3"}, SendSeq: 1,
		Msgs: []journal.OutMsg{{Type: "notify", To: "s4", Seq: 1, Vars: map[string]string{"x": "3"}}},
	}
	var appendErr error
	ns, allocs := timeOp(per, func() {
		if err := j.Append(rec); err != nil {
			appendErr = err
		}
	})
	st := j.Stats()
	if err := j.Close(); err != nil && appendErr == nil {
		appendErr = err
	}
	if appendErr != nil {
		return fmt.Errorf("journal: append: %w", appendErr)
	}
	out["journal.append_ns"] = ns
	out["journal.append_allocs"] = allocs
	out["journal.append_bytes"] = float64(st.Bytes) / float64(st.Appends)

	// Read side: let the real program write the fixture, then time Open
	// (segment scan + index rebuild) and Replay over it.
	w := workloadNamed("chain8_journal")
	d, err := w.deploy(nil)
	if err != nil {
		return err
	}
	fixture := d.tmpDir
	d.tmpDir = "" // keep the directory past close
	defer os.RemoveAll(fixture)
	ctx := context.Background()
	for i := 0; i < journalExecs; i++ {
		if _, err := d.comp.Execute(ctx, map[string]string{"x": "0"}); err != nil {
			d.close()
			return fmt.Errorf("journal: fixture execution: %w", err)
		}
	}
	if err := d.close(); err != nil {
		return err
	}
	ropts := journal.Options{Dir: fixture, Fsync: journal.FsyncOff}
	var replay []float64
	open, err := timeReps(5, func() (time.Duration, error) {
		t0 := time.Now()
		j, err := journal.Open(ropts)
		if err != nil {
			return 0, err
		}
		opened := time.Since(t0)
		records := 0
		t1 := time.Now()
		err = j.Replay(func(*journal.Record) error { records++; return nil })
		replay = append(replay, float64(time.Since(t1))/journalRecords)
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err == nil && records != journalRecords {
			err = fmt.Errorf("journal holds %d records after %d executions, want %d", records, journalExecs, journalRecords)
		}
		return opened, err
	})
	if err != nil {
		return fmt.Errorf("journal: open/replay: %w", err)
	}
	out["journal.open_ms"] = float64(open) / 1e6
	out["journal.replay_ns_per_record"] = median(replay)
	return nil
}

func isoCore(_ time.Duration, out map[string]float64) error {
	// Deploy of Travel onto 3 replicas: generate, compile, install on
	// every replica host, start the wrapper.
	travel := workloadNamed("travel_replicated")
	deploy, err := timeReps(5, func() (time.Duration, error) {
		net := transport.NewInMem(transport.InMemOptions{})
		defer net.Close()
		p := core.New(core.Options{Network: net, Placement: travel.placement, Funcs: workload.TravelGuards()})
		defer p.Close()
		if err := travel.populate(p, nil); err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err := p.Deploy(travel.chart())
		return time.Since(t0), err
	})
	if err != nil {
		return fmt.Errorf("core: deploy: %w", err)
	}
	out["core.deploy_ms"] = float64(deploy) / 1e6

	recover, err := timeReps(3, recoverOnce)
	if err != nil {
		return fmt.Errorf("core: recover: %w", err)
	}
	out["core.recover_ms"] = float64(recover) / 1e6
	return nil
}

// recoverOnce runs 128 Chain(4) executions on a journaled platform, kills
// it, rebuilds the fleet over the same journal and times Recover, which
// must find all 128 finished.
func recoverOnce() (time.Duration, error) {
	dir, err := os.MkdirTemp("", "selfserv-bench-recover-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	chain4 := chain8("chain4_recover", "")
	chain4.chart = func() *statechart.Statechart { return workload.Chain(4) }
	// One life of the fleet over the shared journal directory (the
	// deployment does not own it, so closing a life leaves it in place).
	life := func() (*deployment, error) {
		d := &deployment{net: transport.NewInMem(transport.InMemOptions{})}
		d.platform = core.New(core.Options{Network: d.net, Durability: journal.Options{Dir: dir, Fsync: journal.FsyncOff}})
		err := d.platform.DurabilityError()
		if err == nil {
			err = chain4.populate(d.platform, nil)
		}
		if err == nil {
			d.comp, err = d.platform.Deploy(chain4.chart())
		}
		if err != nil {
			d.close()
			return nil, err
		}
		return d, nil
	}
	ctx := context.Background()
	a, err := life()
	if err != nil {
		return 0, err
	}
	for i := 0; i < journalExecs; i++ {
		if _, err := a.comp.Execute(ctx, map[string]string{"x": "0"}); err != nil {
			a.close()
			return 0, err
		}
	}
	a.platform.Crash()
	a.net.Close()

	b, err := life()
	if err != nil {
		return 0, err
	}
	defer b.close()
	t0 := time.Now()
	stats, err := b.platform.Recover(ctx)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if stats.Finished != journalExecs {
		return 0, fmt.Errorf("recovery found %d finished executions, want %d (%s)", stats.Finished, journalExecs, stats)
	}
	return d, nil
}
