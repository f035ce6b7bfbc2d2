package engine

// Recycling (docs/engine.md, "Who owns a bag", the retire → recycle
// row): on a host with no journal, an instance that finish retired from
// a once table goes back to its table stripe once the round's outbox is
// flushed, and the stripe's next create renews it. A renewed instance
// must be a new one in every field but its spare map, and nothing a
// receive lane still had in flight for a retired ID may find either of
// its earlier lives in it.

import (
	"context"
	"encoding/json"
	"maps"
	"reflect"
	"strconv"
	"testing"
	"time"

	"selfserv/internal/journal"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/transport"
)

// freeOf returns the instances on id's stripe's free list.
func freeOf(c *coordinator, id string) []*coordInstance {
	s := &c.instances.shards[instShardIdx(id)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*coordInstance(nil), s.free[:s.nfree]...)
}

// recycledInto waits until id's stripe holds n recycled instances — the
// recycle follows the flush a test sees arrive — and returns the newest.
func recycledInto(t *testing.T, c *coordinator, id string, n int) *coordInstance {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if free := freeOf(c, id); len(free) == n {
			return free[n-1]
		} else if time.Now().After(deadline) {
			t.Fatalf("stripe of %s holds %d recycled instance(s), want %d", id, len(free), n)
		}
	}
}

// sameStripe returns an instance ID other than id that hashes onto its
// stripe.
func sameStripe(id string) string {
	for i := 0; ; i++ {
		if other := "o" + strconv.Itoa(i); instShardIdx(other) == instShardIdx(id) {
			return other
		}
	}
}

// snapshotOf renders inst's kernel snapshot as KernelSnapshots does.
func snapshotOf(t *testing.T, c *coordinator, id string, inst *coordInstance) string {
	t.Helper()
	inst.mu.Lock()
	defer inst.mu.Unlock()
	buf, err := json.Marshal(c.snapshotLocked(journal.KindSnapshot, id, inst))
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestRecycledInstanceEqualsANewOne: a hop through a once table retires
// its instance and, once the round is flushed, recycles it: renewed, with
// its base cleared into the spare. The stripe's next create takes that
// object, and it equals a new one field for field — kernel snapshot,
// marking, flags — but for the empty spare it keeps.
func TestRecycledInstanceEqualsANewOne(t *testing.T) {
	table := hopTable()
	table.Once = true
	f := newHopFixtureFor(t, HostOptions{}, table)
	c := f.host.coordinatorFor("Chain3", "s2", 0)
	f.hop(t) // instance i1: fired, retired, recycled
	used := recycledInto(t, c, "i1", 1)
	used.mu.Lock()
	spare := used.mk.spare
	used.mu.Unlock()
	if spare == nil || len(spare) != 0 {
		t.Fatalf("a recycled instance's spare is %v, want its cleared base", spare)
	}

	next := sameStripe("i1")
	renewed := c.instance(context.Background(), next)
	if renewed != used || len(freeOf(c, "i1")) != 0 {
		t.Fatal("the stripe's next create did not renew the recycled instance")
	}
	fresh := c.newInstance(false)
	if got, want := snapshotOf(t, c, next, renewed), snapshotOf(t, c, next, fresh); got != want {
		t.Errorf("a renewed instance's kernel snapshot is %s, a new one's %s", got, want)
	}
	// Each instance's fields are read under its own mutex, one at a time.
	type fields struct {
		mk                marking
		running, hydrated bool
	}
	read := func(inst *coordInstance) fields {
		inst.mu.Lock()
		defer inst.mu.Unlock()
		return fields{inst.mk, inst.running, inst.hydrated}
	}
	got, want := read(renewed), read(fresh)
	if reflect.ValueOf(got.mk.spare).Pointer() != reflect.ValueOf(spare).Pointer() || len(spare) != 0 {
		t.Error("renewing dropped or wrote the spare map")
	}
	got.mk.spare = nil
	got.mk.srcs, got.mk.pending = got.mk.srcBuf[:len(got.mk.srcs)], got.mk.maskBuf[:len(got.mk.pending)]
	want.mk.srcs, want.mk.pending = want.mk.srcBuf[:len(want.mk.srcs)], want.mk.maskBuf[:len(want.mk.pending)]
	if !reflect.DeepEqual(got, want) {
		t.Errorf("renewed instance %+v, a new one %+v", got, want)
	}
}

// TestLateFrameForARetiredIDCarriesNothingOfEitherLife: instance A of a
// two-source once join fires and retires; its object is recycled, renewed
// for B in the same stripe, fires and retires again. A frame for A that
// was sent during A's life, held on the wire until then, then lands on
// that same object: a new instance holding the late arrival and nothing
// of A's or B's variables, counts, marks or sequence numbers. It does not
// fire — its join waits for a second source — and it hands the receive
// lane the spare map for its bag.
func TestLateFrameForARetiredIDCarriesNothingOfEitherLife(t *testing.T) {
	net := transport.NewInMem(transport.InMemOptions{})
	t.Cleanup(func() { net.Close() })
	reg := service.NewRegistry()
	reg.Register(service.NewSimulated("svc", service.SimulatedOptions{}).Echo("run"))
	dir := NewDirectory()
	h, err := NewHost(net, "join-host", reg, dir, HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	if err := InstallTable(h, "Join", &routing.Table{
		State: "j", Service: "svc", Operation: "run", Once: true,
		Preconditions:   []routing.Clause{{Sources: []string{"a", "b"}}},
		Postprocessings: []routing.Target{{To: "k"}},
	}); err != nil {
		t.Fatal(err)
	}
	sunk := make(chan map[string]string, 4)
	if _, err := net.Listen("sink", func(_ context.Context, m *message.Message) {
		sunk <- m.Vars
		m.Vars = nil // taken
	}); err != nil {
		t.Fatal(err)
	}
	dir.Set("Join", "k", "sink")
	c := h.coordinatorFor("Join", "j", 0)
	ctx := context.Background()
	frame := func(id, from string, vars map[string]string) *message.Message {
		return &message.Message{Type: message.TypeNotify, Composite: "Join", Instance: id, From: from, To: "j", Vars: vars}
	}
	life := func(id string, a, b map[string]string) {
		t.Helper()
		c.onNotification(ctx, frame(id, "a", a))
		c.onNotification(ctx, frame(id, "b", b))
		select {
		case got := <-sunk:
			want := maps.Clone(a)
			maps.Copy(want, b)
			if !maps.Equal(got, want) {
				t.Fatalf("instance %s notified k with %v, want %v", id, got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("instance %s never fired", id)
		}
	}

	net.Hold(h.Addr())
	late := map[string]string{"late": "1"}
	if err := net.Send(ctx, h.Addr(), frame("A", "a", late)); err != nil {
		t.Fatal(err)
	}
	life("A", map[string]string{"x": "A1"}, map[string]string{"y": "A2"})
	p := recycledInto(t, c, "A", 1)
	B := sameStripe("A")
	life(B, map[string]string{"x": "B1"}, map[string]string{"w": "B2"})
	if recycledInto(t, c, "A", 1) != p {
		t.Fatal("B did not run on A's recycled object")
	}
	net.Release(h.Addr()) // delivers the late frame on this goroutine

	inst, ok := c.instances.get("A")
	if !ok || inst != p {
		t.Fatal("the late frame for A did not land on the recycled object")
	}
	want := c.newInstance(true)
	want.mu.Lock()
	want.mk.arrive(0, true, 0, maps.Clone(late))
	want.mu.Unlock()
	if got, want := snapshotOf(t, c, "A", inst), snapshotOf(t, c, "A", want); got != want {
		t.Errorf("the late frame's instance is %s, want a new one with the late arrival alone: %s", got, want)
	}
	inst.mu.Lock()
	if inst.running || inst.mk.spare != nil || !maps.Equal(inst.mk.srcs[0].vars, late) || inst.mk.base != nil {
		t.Errorf("the late frame's instance: running %v, spare %v, layer %v, base %v",
			inst.running, inst.mk.spare, inst.mk.srcs[0].vars, inst.mk.base)
	}
	inst.mu.Unlock()
	if h.Retired() != 2 || h.Evicted() != 0 || len(sunk) != 0 {
		t.Errorf("retired %d, evicted %d, %d more firing(s): want 2 lives and no firing of the late frame", h.Retired(), h.Evicted(), len(sunk))
	}
}
