package engine

// The engine's share of the hop budget, pinned where `go test` sees it
// before the benchmark of record runs (the twin of transport's
// TestHopCostAllocs): the whole coordinator round, and the pieces of it
// that are meant to allocate nothing at all — an instance beyond its one
// object, the outbox of a one-peer round, and a log line nobody reads.

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"selfserv/internal/journal"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// hopTable is the routing table of a chain's middle state: entered from
// s1, x := x+1 at the provider, s3 notified.
func hopTable() *routing.Table {
	bind := []statechart.Binding{{Param: "x", Var: "x"}}
	return &routing.Table{
		State: "s2", Service: "svc2", Operation: "run", Inputs: bind, Outputs: bind,
		Preconditions:   []routing.Clause{{Sources: []string{"s1"}}},
		Postprocessings: []routing.Target{{To: "s3"}},
	}
}

// hopFixture is one host with hopTable installed on a synchronous
// in-memory network and a sink standing in for s3 — the benchmark's
// engine.hop fixture.
type hopFixture struct {
	net  *transport.InMem
	host *Host
	seen chan string
	n    int
}

func newHopFixture(t *testing.T, opts HostOptions) *hopFixture {
	t.Helper()
	return newHopFixtureFor(t, opts, hopTable())
}

func newHopFixtureFor(t *testing.T, opts HostOptions, table *routing.Table) *hopFixture {
	t.Helper()
	f := &hopFixture{net: transport.NewInMem(transport.InMemOptions{Synchronous: true}), seen: make(chan string, 1)}
	t.Cleanup(func() { f.net.Close() })
	reg := service.NewRegistry()
	svc := service.NewSimulated("svc2", service.SimulatedOptions{})
	svc.Handle("run", func(_ context.Context, p map[string]string) (map[string]string, error) {
		x, err := strconv.Atoi(p["x"])
		return map[string]string{"x": strconv.Itoa(x + 1)}, err
	})
	reg.Register(svc)
	dir := NewDirectory()
	var err error
	if f.host, err = NewHost(f.net, "hop-host", reg, dir, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.host.Close() })
	if err := InstallTable(f.host, "Chain3", table); err != nil {
		t.Fatal(err)
	}
	if _, err := f.net.Listen("hop-sink", func(_ context.Context, m *message.Message) { f.seen <- m.Vars["x"] }); err != nil {
		t.Fatal(err)
	}
	dir.Set("Chain3", "s3", "hop-sink")
	return f
}

var hopVars = map[string]string{"x": "1"}

// hop sends one notification from s1 for a fresh instance and waits for
// the round's notification at the sink.
func (f *hopFixture) hop(t *testing.T) {
	f.n++
	m := &message.Message{
		Type: message.TypeNotify, Composite: "Chain3", Instance: "i" + strconv.Itoa(f.n),
		From: "s1", To: "s2", Vars: hopVars, // encoded by Send, never handed over
	}
	if err := f.net.Send(context.Background(), f.host.Addr(), m); err != nil {
		t.Fatal(err)
	}
	if x := <-f.seen; x != "2" {
		t.Fatalf("hop delivered x=%q, want 2", x)
	}
}

// TestHopCostAllocs pins one coordinator round end to end: frame in,
// arrival, firing on a warm worker, provider, round, frame out. It was
// ≈ 41 objects when an arriving bag was copied three times and a hop
// built two log lines nobody read, and 22 while the canonical merge
// copied the one layer it had (2) and the simulated provider deferred a
// closure (1), 19 while the round's message was its own object, and 18
// while the provider edge built a params map (2) and a formatted
// idempotency key (1) per firing. What is left is the test's own message
// and instance ID 2, the wire's share 4 in and 4 out, the instance 1 and
// the provider edge's outputs 2: the params map is the firing worker's
// and the key a struct, 0 objects each (TestWarmRequestAllocatesNothing).
// That is 13, and the ceiling: a Synchronous delivery decodes into a
// Message of its own, so its bag is a new map that the instance adopts,
// and hopTable is not once, so no instance is recycled (a once table's
// hop is TestRetireAllocatesNothing's, 2 objects fewer).
//
// The journal's row has the SAME ceiling: the hop's three records — the
// arrival and the round written through, the invoke record staged
// between them — are encoded from stack records into the shard's buffer,
// and the round's Msgs and Cleared are the firing worker's scratch, so
// journal-on allocates what journal-off does.
func TestHopCostAllocs(t *testing.T) {
	ceiling := 13.0
	if raceEnabled {
		ceiling++ // the race detector's sync.Pool drops a pooled frame buffer on purpose
	}
	f := newHopFixture(t, HostOptions{})
	for i := 0; i < 64; i++ { // park a worker, size the table's maps
		f.hop(t)
	}
	a := testing.AllocsPerRun(500, func() { f.hop(t) })
	t.Logf("one hop: %v objects", a)
	if a > ceiling {
		t.Errorf("one Chain(3) middle-state hop allocates %v objects, ceiling %v", a, ceiling)
	}

	j, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	d := newHopFixture(t, HostOptions{Journal: j})
	for i := 0; i < 64; i++ { // also sizes every journal shard's buffer
		d.hop(t)
	}
	before := j.Stats()
	durable := testing.AllocsPerRun(500, func() { d.hop(t) })
	after := j.Stats()
	t.Logf("one journaled hop: %v objects", durable)
	if durable > ceiling || durable > a {
		t.Errorf("the same hop with the journal on allocates %v objects; journal-off allocates %v, ceiling %v", durable, a, ceiling)
	}
	if hops := uint64(501); after.Appends-before.Appends != 3*hops || after.Writes-before.Writes != 2*hops { // AllocsPerRun warms up once
		t.Errorf("%d journaled hops made %d records in %d writes, want 3 and 2 each",
			hops, after.Appends-before.Appends, after.Writes-before.Writes)
	}

	// The same hop with somebody listening pays for boxing the two lines'
	// eight arguments, and nothing else changes.
	var lines atomic.Int64
	g := newHopFixture(t, HostOptions{Logf: func(string, ...any) { lines.Add(1) }})
	for i := 0; i < 64; i++ {
		g.hop(t)
	}
	quiet := testing.AllocsPerRun(500, func() { f.hop(t) })
	logged := testing.AllocsPerRun(500, func() { g.hop(t) })
	if lines.Load() == 0 || logged <= quiet {
		t.Errorf("a hop with Logf set allocates %v objects and logged %d line(s); with Logf nil it allocates %v", logged, lines.Load(), quiet)
	}
}

// TestWarmRequestAllocatesNothing: a warm firing's provider call — the
// inputs bound into the firing worker's params map and the idempotency
// key naming the firing — costs no object: the map is the one the worker
// clears after every firing, and the key is a struct of strings the
// firing already holds.
func TestWarmRequestAllocatesNothing(t *testing.T) {
	compiled, err := routing.CompileTable(hopTable())
	if err != nil {
		t.Fatal(err)
	}
	c := &coordinator{origin: origin{composite: "Chain3"}, table: compiled}
	vars := map[string]string{"x": "1", "y": "2", TenantVar: "acme"}
	params := map[string]string{} // a firing worker's, for life
	var req service.Request
	if a := testing.AllocsPerRun(200, func() {
		clear(params)
		req, err = c.request("i1", 7, vars, params)
	}); a != 0 || err != nil {
		t.Errorf("a warm firing's bind and key allocate %v objects (err %v), want 0", a, err)
	}
	want := service.Key{Composite: "Chain3", Instance: "i1", State: "s2", Seq: 7}
	if req.IdempotencyKey != want || req.Tenant != "acme" || req.Service != "svc2" || req.Operation != "run" {
		t.Errorf("request %+v, want key %v, tenant acme, svc2.run", req, want)
	}
	if fmt.Sprint(req.Params) != "map[x:1]" {
		t.Errorf("params %v, want x alone", req.Params)
	}
	if clear(req.Params); len(params) != 0 {
		t.Error("the request's params are not the worker's map")
	}
}

// TestRetireAllocatesNothing: the same hop through a table marked once
// ends by taking its instance out of the table — map, count and ring —
// and costs no object more than the hop that leaves it there: it costs
// less, since the retired instance is recycled and renewed by the next
// create, with its cleared base as the spare map (recycle_test.go).
func TestRetireAllocatesNothing(t *testing.T) {
	measure := func(once bool) (float64, *hopFixture) {
		table := hopTable()
		table.Once = once
		f := newHopFixtureFor(t, HostOptions{}, table)
		for i := 0; i < 64; i++ {
			f.hop(t)
		}
		return testing.AllocsPerRun(500, func() { f.hop(t) }), f
	}
	kept, _ := measure(false)
	retired, f := measure(true)
	t.Logf("one hop: %v objects kept, %v retired", kept, retired)
	if retired > kept {
		t.Errorf("a hop that retires its instance allocates %v objects, one that keeps it %v", retired, kept)
	}
	if seated, _ := TableStats(f.host); seated != 0 || f.host.Retired() != uint64(f.n) || f.host.Evicted() != 0 {
		t.Errorf("%d hops: %d instance(s) still seated, %d retired, %d evicted", f.n, seated, f.host.Retired(), f.host.Evicted())
	}
}

// TestUntakenRetireAllocatesNothing: an instance of a guarded AND-join
// whose clause is covered and false — CR when the attraction is near —
// is retired by the arrival that decided it, and the untaken check and
// the retire cost no object more than leaving the instance for someone
// else to take out of the table (the same shardedTable.retire, called by
// hand). An arrival that covers no clause checks for nothing to fire
// without an object at all.
func TestUntakenRetireAllocatesNothing(t *testing.T) {
	const runs = 500
	ctx := context.Background()
	measure := func(once bool) (float64, *Host, *coordinator) {
		net := transport.NewInMem(transport.InMemOptions{Synchronous: true})
		t.Cleanup(func() { net.Close() })
		reg := service.NewRegistry()
		reg.Register(service.NewSimulated("svc", service.SimulatedOptions{}).Echo("run")) // never called: the join is untaken
		h, err := NewHost(net, "join-host", reg, NewDirectory(), HostOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		if err := InstallTable(h, "Join", &routing.Table{
			State: "j", Service: "svc", Operation: "run", Once: once,
			Preconditions:   []routing.Clause{{Sources: []string{"a", "b"}, Condition: "x > 5"}},
			Postprocessings: []routing.Target{{To: "k"}},
		}); err != nil {
			t.Fatal(err)
		}
		c := h.coordinatorFor("Join", "j", 0)
		msgs := make([]message.Message, 2*(runs+65))
		for i := range msgs {
			msgs[i] = message.Message{Type: message.TypeNotify, Composite: "Join", Instance: "i" + strconv.Itoa(i/2),
				From: string(rune('a' + i%2)), To: "j", Vars: map[string]string{"x": "1"}}
		}
		n := 0
		join := func() {
			c.onNotification(ctx, &msgs[n])
			c.onNotification(ctx, &msgs[n+1])
			if !once {
				c.instances.retire(msgs[n].Instance)
			}
			n += 2
		}
		for i := 0; i < 64; i++ {
			join()
		}
		return testing.AllocsPerRun(runs, join), h, c
	}
	kept, _, _ := measure(false)
	retired, h, c := measure(true)
	t.Logf("one untaken join: %v objects kept, %v retired", kept, retired)
	if retired != kept {
		t.Errorf("an untaken join that retires its instance allocates %v objects, one taken out by hand %v", retired, kept)
	}
	if seated, _ := TableStats(h); seated != 0 || h.Retired() != runs+65 || h.Evicted() != 0 {
		t.Errorf("%d untaken joins: %d instance(s) still seated, %d retired, %d evicted", runs+65, seated, h.Retired(), h.Evicted())
	}

	inst := c.newInstance(true)
	inst.mu.Lock()
	defer inst.mu.Unlock()
	inst.mk.arrive(0, true, 0, map[string]string{"x": "1"})
	var untaken bool
	if a := testing.AllocsPerRun(runs, func() {
		_, untaken, _ = inst.mk.satisfied(c.table.Preconditions, c.table.MergeOrder(), c.funcEnv)
	}); a != 0 || untaken {
		t.Errorf("an arrival that covers no clause: the check allocates %v objects, untaken %v", a, untaken)
	}
}

// TestNewInstanceIsOneAllocation: the marking's bookkeeping lives inside
// the instance for the tables every shipped workload has.
func TestNewInstanceIsOneAllocation(t *testing.T) {
	compiled, err := routing.CompileTable(hopTable())
	if err != nil {
		t.Fatal(err)
	}
	c := &coordinator{table: compiled}
	var keep *coordInstance
	if a := testing.AllocsPerRun(200, func() { keep = c.newInstance(true) }); a != 1 {
		t.Errorf("newInstance on a %d-source table allocates %v objects, want 1", compiled.NumSources(), a)
	}
	keep.mu.Lock()
	defer keep.mu.Unlock()
	if len(keep.mk.srcs) != compiled.NumSources() || len(keep.mk.pending) != compiled.MaskWords() {
		t.Errorf("instance sized %d sources / %d mask words, table has %d / %d",
			len(keep.mk.srcs), len(keep.mk.pending), compiled.NumSources(), compiled.MaskWords())
	}
}

// countingSender accepts everything and remembers nothing.
type countingSender struct{ sends, batches int }

func (s *countingSender) From() string { return "test" }
func (s *countingSender) Send(context.Context, string, *message.Message) error {
	s.sends++
	return nil
}
func (s *countingSender) SendBatch(context.Context, string, []*message.Message) error {
	s.batches++
	return nil
}

// TestOutboxOnePeerRoundAllocatesNothing: a round that notifies one peer
// — every chain hop — builds its message through origin.message into the
// firing worker's outbox and flushes it without touching the heap, and
// an outbox still coalesces, keeps per-destination order and counts
// frames once a second destination and a second message arrive.
func TestOutboxOnePeerRoundAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	s := &countingSender{}
	o := origin{composite: "Chain3", from: "s2"}
	vars := map[string]string{"x": "2"}
	box := new(outbox) // a firing worker's, for life
	if a := testing.AllocsPerRun(200, func() {
		o.message(box.next("peer"), "i1", "s3", 0, vars)
		if box.empty() || box.msgs() != 1 || box.frames() != 1 || box.flush(ctx, s) != nil {
			t.Fatal("a one-message outbox miscounts or fails to flush")
		}
		box.reset()
	}); a != 0 {
		t.Errorf("a one-peer round's message and outbox allocate %v objects, want 0", a)
	}
	if s.sends == 0 || s.batches != 0 {
		t.Errorf("one-peer rounds went out as %d send(s) and %d batch(es)", s.sends, s.batches)
	}

	var sent []string
	rec := &recordingSender{out: &sent}
	if !box.empty() || box.msgs() != 0 || box.frames() != 0 || box.flush(ctx, rec) != nil || len(sent) != 0 {
		t.Error("a reset outbox is not empty")
	}
	for i, addr := range []string{"a", "b", "a", "c", "b"} {
		box.next(addr).Instance = strconv.Itoa(i)
	}
	if box.msgs() != 5 || box.frames() != 3 {
		t.Errorf("five messages for three peers count as %d message(s) in %d frame(s)", box.msgs(), box.frames())
	}
	if err := box.flush(ctx, rec); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(sent), "[a:0,2 b:1,4 c:3]"; got != want {
		t.Errorf("flushed %s, want %s", got, want)
	}
}

// TestStartFanAllocatesNothing: Parallel(8)'s start phase fills a
// borrowed outbox with its eight start messages, flushes them as one
// frame per destination and hands the outbox back, all without an object.
func TestStartFanAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops borrowed outboxes on purpose")
	}
	plan, err := routing.Generate(workload.Parallel(8))
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := routing.CompilePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	dir := NewDirectory()
	for i, target := range compiled.Start {
		dir.Set(plan.Composite, target.To, "host-"+strconv.Itoa(i%3))
	}
	w := &Wrapper{origin: origin{dir: dir, composite: plan.Composite, from: message.WrapperID}, compiled: compiled}
	ctx := context.Background()
	s := &countingSender{}
	inputs := map[string]string{"x": "0"}
	if a := testing.AllocsPerRun(200, func() {
		box, err := w.startPhase("i1", inputs)
		if err != nil {
			t.Fatal(err)
		}
		if box.msgs() != 8 || box.frames() != 3 || box.flush(ctx, s) != nil {
			t.Fatalf("the start fan is %d message(s) in %d frame(s), want 8 in 3", box.msgs(), box.frames())
		}
		box.release()
	}); a != 0 {
		t.Errorf("Parallel(8)'s start phase allocates %v objects, want 0", a)
	}
	if s.sends != 0 || s.batches == 0 {
		t.Errorf("the start fan went out as %d send(s) and %d batch(es), want batches only", s.sends, s.batches)
	}
}

// recordingSender writes down each frame as "addr:instance,instance".
type recordingSender struct{ out *[]string }

func (s *recordingSender) From() string { return "test" }
func (s *recordingSender) Send(_ context.Context, to string, m *message.Message) error {
	*s.out = append(*s.out, to+":"+m.Instance)
	return nil
}
func (s *recordingSender) SendBatch(_ context.Context, to string, ms []*message.Message) error {
	frame := to + ":"
	for i, m := range ms {
		if i > 0 {
			frame += ","
		}
		frame += m.Instance
	}
	*s.out = append(*s.out, frame)
	return nil
}

// TestQuietLogSitesAllocateNothing takes the four log lines on the hop
// and eviction paths one at a time. With Logf nil each site costs no
// object: the two eviction sites are measured on onEvict itself (which
// allocates nothing else either — the passivation record is built over
// the table stripe's scratch and staged), the firing and round sites by the
// hop budget above. With Logf set every line comes out as it always did.
func TestQuietLogSitesAllocateNothing(t *testing.T) {
	compiled, err := routing.CompileTable(hopTable())
	if err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for _, tc := range []struct {
		name    string
		journal *journal.Journal
		want    string
	}{
		{"lossy", nil, "coord Chain3/s2: EVICTED live instance i7 at cap 5 — its state is lost and its execution faulted"},
		{"passivating", j, "coord Chain3/s2: passivated instance i7 at cap 5"},
	} {
		quiet := &coordinator{origin: origin{composite: "Chain3"}, table: compiled,
			host: &Host{opts: HostOptions{MaxInstancesPerState: 5, Journal: tc.journal}}}
		inst := quiet.newInstance(true)
		inst.mu.Lock()
		inst.mk.arrive(0, true, 0, map[string]string{"x": "1"})
		inst.mu.Unlock()
		scratch := new(evictScratch) // the table stripe's
		// The commit of i7's journal shard that a staged passivation rides.
		carrier := &journal.Record{Kind: journal.KindWDone, Composite: "Chain3", Instance: "i7"}
		if a := testing.AllocsPerRun(100, func() {
			if quiet.onEvict("i7", inst, scratch) == evictVeto {
				t.Fatal("an idle hydrated instance was not evictable")
			}
			if tc.journal != nil {
				tc.journal.Append(carrier)
			}
		}); a != 0 {
			t.Errorf("%s eviction with Logf nil allocates %v objects, want 0", tc.name, a)
		}
		for _, src := range scratch.sources {
			if src.Name != "" || src.Vars != nil {
				t.Errorf("%s eviction left the stripe's scratch holding %+v", tc.name, src)
			}
		}

		loud := &coordinator{origin: origin{composite: "Chain3"}, table: compiled,
			host: &Host{opts: HostOptions{MaxInstancesPerState: 5, Journal: tc.journal, Logf: logf}}}
		mu.Lock()
		lines = nil
		mu.Unlock()
		if loud.onEvict("i7", inst, scratch) == evictVeto || len(lines) != 1 || lines[0] != tc.want {
			t.Errorf("%s eviction logged %q, want %q", tc.name, lines, tc.want)
		}
	}

	mu.Lock()
	lines = nil
	mu.Unlock()
	f := newHopFixture(t, HostOptions{Logf: logf})
	f.hop(t)
	want := []string{
		"coord Chain3/s2: firing instance i1",
		"coord Chain3/s2: instance i1 notified 1 peer(s) in 1 frame(s)",
	}
	// The round's line follows the flush the hop waited for.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := fmt.Sprint(lines)
		mu.Unlock()
		if got == fmt.Sprint(want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a hop logged %s, want %q", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}
