package controlplane

// Recovery-aware activation (docs/durability.md): a durable daemon that
// died mid-execution comes back empty; the control plane re-applies the
// last-known-good release (tables + directory + activation) and THEN
// broadcasts /recover, so the daemon's journal replay finds live
// coordinators to rebuild its instances into and the interrupted
// composite completes.

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/hostapi"
	"selfserv/internal/journal"
	"selfserv/internal/placement"
	"selfserv/internal/service"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// durableDaemon is a hostd-shaped process with a durability journal and
// the /recover hook wired the way cmd/hostd wires it.
type durableDaemon struct {
	host  *engine.Host
	dir   *engine.Directory
	jnl   *journal.Journal
	admin *httptest.Server
}

func newDurableDaemon(t *testing.T, net transport.Network, addr string, reg *service.Registry, jdir string) *durableDaemon {
	t.Helper()
	j, err := journal.Open(journal.Options{Dir: jdir, Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, addr, reg, dir, engine.HostOptions{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	admin := httptest.NewServer(hostapi.NewServer(hostapi.NewNode(h, dir, reg.Names, func(ctx context.Context) (engine.RecoveryStats, error) {
		return engine.Recover(ctx, j, []*engine.Host{h}, nil)
	})))
	d := &durableDaemon{host: h, dir: dir, jnl: j, admin: admin}
	t.Cleanup(d.crash)
	return d
}

// crash kills the daemon the way a process death would: endpoints
// close, the journal is abandoned (what was staged is lost), nothing
// drains. Safe to call twice.
func (d *durableDaemon) crash() {
	d.admin.Close()
	d.host.Close()
	d.jnl.Abandon()
}

// TestRecoverBroadcastMixedFleet: Recover sweeps the whole fleet with one
// request per host, replaying durable daemons and skipping journal-less
// ones (their 409 is ErrNoJournal) as a non-error — a mixed fleet
// recovers whatever was durable.
func TestRecoverBroadcastMixedFleet(t *testing.T) {
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	d1 := newDaemon(t, net, "coord-1", 1) // journal-less
	reg := service.NewRegistry()
	s := service.NewSimulated("svc2", service.SimulatedOptions{})
	s.Handle("run", incr)
	reg.Register(s)
	dd := newDurableDaemon(t, net, "coord-2", reg, t.TempDir())

	cp := New(placement.Policy{}, d1.admin.URL, dd.admin.URL)
	replayed, err := cp.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if calls := cp.AdminCalls(); calls != 2 {
		t.Errorf("recovering a fleet of two cost %d admin requests, want 2", calls)
	}
	if stats, ok := replayed[d1.admin.URL]; ok {
		t.Errorf("journal-less daemon has an entry: %s", stats)
	}
	if _, ok := replayed[dd.admin.URL]; !ok || len(replayed) != 1 {
		t.Fatalf("replayed = %v, want the durable daemon only", replayed)
	}
}

// TestRecoverAfterDaemonRestart is the fleet-level crash-recovery
// drill: svc2's daemon dies while svc2 is mid-invocation, restarts over
// the same journal directory, the control plane re-applies the SAME
// release (same plan version — what the journal records name) and
// broadcasts /recover, and the interrupted Chain(2) execution — whose
// wrapper never died — completes with exactly one svc2 invocation per
// life.
func TestRecoverAfterDaemonRestart(t *testing.T) {
	sc := workload.Chain(2)
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	jdir := t.TempDir()

	d1 := newDaemon(t, net, "coord-1", 1) // svc1, journal-less

	// Life A of svc2's daemon: the provider blocks mid-invocation so the
	// crash lands with the invocation in doubt (arrival journaled, round
	// not).
	regA := service.NewRegistry()
	svc2a := service.NewSimulated("svc2", service.SimulatedOptions{})
	reached := make(chan struct{})
	gate := make(chan struct{})
	defer close(gate) // release the zombie handler at test end
	var once sync.Once
	svc2a.Handle("run", func(ctx context.Context, p map[string]string) (map[string]string, error) {
		once.Do(func() { close(reached) })
		<-gate
		return incr(ctx, p)
	})
	regA.Register(svc2a)
	ddA := newDurableDaemon(t, net, "coord-2", regA, jdir)

	cp := New(placement.Policy{}, d1.admin.URL, ddA.admin.URL)
	rel, err := cp.Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	w1 := deployWrapper(t, cp, net, "wrapper-1", rel)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type result struct {
		out map[string]string
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := w1.ExecuteInstance(ctx, "r-1", map[string]string{"x": "0"})
		done <- result{out, err}
	}()
	select {
	case <-reached:
	case <-ctx.Done():
		t.Fatal("svc2 never reached")
	}
	ddA.crash()

	// Life B: fresh daemon, fresh provider objects, same journal
	// directory, same coordination address.
	regB := service.NewRegistry()
	svc2b := service.NewSimulated("svc2", service.SimulatedOptions{})
	svc2b.Handle("run", incr)
	regB.Register(svc2b)
	ddB := newDurableDaemon(t, net, "coord-2", regB, jdir)

	// Recovery-aware activation: re-apply the SAME release so the
	// restarted daemon holds v1's tables and routes, then replay.
	cp2 := New(placement.Policy{}, d1.admin.URL, ddB.admin.URL)
	if err := cp2.Apply(rel, w1.Addr()); err != nil {
		t.Fatalf("re-apply after restart: %v", err)
	}
	replayed, err := cp2.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats := replayed[ddB.admin.URL]; stats.Coordinators == 0 {
		t.Fatalf("restarted daemon replayed nothing: %s", stats)
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("interrupted execution failed: %v", res.err)
	}
	if res.out["x"] != "2" {
		t.Fatalf("x = %q, want 2", res.out["x"])
	}
	if inv, _, _ := svc2a.Counters(); inv != 1 {
		t.Errorf("life A svc2 invoked %d times, want 1 (in doubt at the kill)", inv)
	}
	if inv, _, _ := svc2b.Counters(); inv != 1 {
		t.Errorf("life B svc2 invoked %d times, want 1 (the recovery re-execution)", inv)
	}
}
