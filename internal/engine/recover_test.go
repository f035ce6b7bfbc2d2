package engine_test

// Engine-level crash recovery (docs/durability.md): a fabric whose
// every endpoint dies mid-Chain(3) is rebuilt over the same journal
// directory, engine.Recover replays the journal into the fresh hosts
// and wrapper, and the interrupted instance completes with zero
// duplicate invocations — the same contract the core-level suite pins
// through Platform.Crash/Recover, here against the engine API directly.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"selfserv/internal/community"
	"selfserv/internal/engine"
	"selfserv/internal/journal"
	"selfserv/internal/message"
	"selfserv/internal/service"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

func recIncr(_ context.Context, p map[string]string) (map[string]string, error) {
	var x int
	fmt.Sscanf(p["x"], "%d", &x)
	return map[string]string{"x": fmt.Sprint(x + 1)}, nil
}

// buildDurableChain deploys Chain(n) over net with every host and the
// wrapper journaling to j — one host per service, deterministic
// addresses so life B's fabric is shaped exactly like life A's.
func buildDurableChain(t *testing.T, net transport.Network, n int, reg *service.Registry, j *journal.Journal) ([]*engine.Host, *engine.Wrapper) {
	t.Helper()
	return buildDurable(t, net, workload.Chain(n), reg, j, nil)
}

func TestEngineCrashRecoveryMidChain(t *testing.T) {
	const n = 3
	jdir := t.TempDir()
	openJournal := func() *journal.Journal {
		j, err := journal.Open(journal.Options{Dir: jdir, Fsync: journal.FsyncOff})
		if err != nil {
			t.Fatalf("journal.Open: %v", err)
		}
		return j
	}

	// --- life A: the kill lands while svc2's invocation is in flight ---
	netA := transport.NewInMem(transport.InMemOptions{})
	regA := service.NewRegistry()
	reached := make(chan struct{})
	gate := make(chan struct{})
	defer close(gate) // release life A's stuck provider goroutine
	var once sync.Once
	aSims := map[int]*service.Simulated{}
	for i := 1; i <= n; i++ {
		s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
		if i == 2 {
			s.Handle("run", func(ctx context.Context, p map[string]string) (map[string]string, error) {
				once.Do(func() { close(reached) })
				<-gate
				return recIncr(ctx, p)
			})
		} else {
			s.Handle("run", recIncr)
		}
		aSims[i] = s
		regA.Register(service.NewIdempotent(s, 0))
	}
	jA := openJournal()
	hostsA, wA := buildDurableChain(t, netA, n, regA, jA)
	if wA.Composite() != workload.Chain(n).Name {
		t.Fatalf("wrapper composite = %q", wA.Composite())
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	execDone := make(chan struct{})
	go func() {
		defer close(execDone)
		// Life A's client: its Execute dies with the process.
		wA.ExecuteInstance(ctxA, "rec-1", map[string]string{"x": "0"})
	}()
	select {
	case <-reached:
	case <-ctxWithTimeout(t).Done():
		t.Fatal("svc2 never reached")
	}
	if got := wA.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	// The kill: every endpoint closes and the journal is abandoned —
	// nothing drains, nothing staged is written, no abandonment or
	// completion records are.
	wA.Kill()
	for _, h := range hostsA {
		h.Close()
	}
	jA.Abandon()
	netA.Close()
	cancelA()
	<-execDone

	// --- life B: fresh fabric, same journal directory ------------------
	netB := transport.NewInMem(transport.InMemOptions{})
	defer netB.Close()
	regB := service.NewRegistry()
	bSims := map[int]*service.Simulated{}
	for i := 1; i <= n; i++ {
		s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
		s.Handle("run", recIncr)
		bSims[i] = s
		regB.Register(service.NewIdempotent(s, 0))
	}
	jB := openJournal()
	defer jB.Close()
	hostsB, wB := buildDurableChain(t, netB, n, regB, jB)
	defer wB.Close()
	for _, h := range hostsB {
		defer h.Close()
	}

	ctx := ctxWithTimeout(t)
	stats, err := engine.Recover(ctx, jB, hostsB, []*engine.Wrapper{wB})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Wrappers != 1 {
		t.Errorf("recovered wrappers = %d, want 1 (stats: %s)", stats.Wrappers, stats)
	}
	if s := stats.String(); !strings.Contains(s, "wrappers") {
		t.Errorf("RecoveryStats.String() = %q, want the counter summary", s)
	}
	found := false
	for _, id := range wB.Recovered() {
		if id == "rec-1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("instance rec-1 lost: recovered = %v", wB.Recovered())
	}
	if _, err := wB.WaitRecovered(ctx, "no-such-instance"); err == nil {
		t.Error("WaitRecovered on an unknown instance succeeded")
	}
	out, err := wB.WaitRecovered(ctx, "rec-1")
	if err != nil {
		t.Fatalf("WaitRecovered: %v", err)
	}
	if out["x"] != fmt.Sprint(n) {
		t.Fatalf("x = %q, want %d", out["x"], n)
	}
	if got := wB.Abandoned(); got != 0 {
		t.Errorf("Abandoned = %d, want 0", got)
	}

	// Zero duplicate invocations across both lives: svc1's round was
	// journaled in life A and must not re-run; svc2 was in doubt at the
	// kill and legally re-executes once; svc3 runs only in life B.
	if inv, _, _ := aSims[1].Counters(); inv != 1 {
		t.Errorf("life A svc1 invoked %d times, want 1", inv)
	}
	if inv, _, _ := bSims[1].Counters(); inv != 0 {
		t.Errorf("life B svc1 invoked %d times, want 0 (round was journaled)", inv)
	}
	for i := 2; i <= n; i++ {
		if inv, _, _ := bSims[i].Counters(); inv != 1 {
			t.Errorf("life B svc%d invoked %d times, want 1", i, inv)
		}
	}
	if inv, _, _ := aSims[3].Counters(); inv != 0 {
		t.Errorf("life A svc3 invoked %d times, want 0", inv)
	}
}

// TestRecoverPrimesACommunitysDedup: a community keeps its own
// idempotency cache (dedup is always on) and recovery primes it like a
// bare service.Idempotent, so replaying a journaled invocation key after
// a restart does not delegate the booking to a member again. Before
// Community.Unwrap exposed that cache, Recover found no cache to prime
// (Primed 0) and the replayed key invoked the member a second time.
func TestRecoverPrimesACommunitysDedup(t *testing.T) {
	jdir := t.TempDir()
	openJournal := func() *journal.Journal {
		j, err := journal.Open(journal.Options{Dir: jdir, Fsync: journal.FsyncOff})
		if err != nil {
			t.Fatalf("journal.Open: %v", err)
		}
		return j
	}
	// The member is the remote hotel: it outlives the daemon that crashed,
	// and each life builds a fresh community in front of it.
	member := service.NewSimulated("hotel-a", service.SimulatedOptions{})
	member.Handle("run", recIncr)
	newLife := func() (*service.Registry, *community.Community) {
		comm := community.New("svc1", community.Options{})
		if err := comm.Join(&community.Member{Provider: member}); err != nil {
			t.Fatal(err)
		}
		reg := service.NewRegistry()
		reg.Register(comm)
		return reg, comm
	}

	netA := transport.NewInMem(transport.InMemOptions{})
	defer netA.Close()
	regA, _ := newLife()
	jA := openJournal()
	hostsA, wA := buildDurableChain(t, netA, 1, regA, jA)
	if out, err := wA.Execute(ctxWithTimeout(t), map[string]string{"x": "0"}); err != nil || out["x"] != "1" {
		t.Fatalf("life A: out=%v err=%v, want x=1", out, err)
	}
	wA.Close()
	for _, h := range hostsA {
		h.Close()
	}
	if err := jA.Close(); err != nil {
		t.Fatal(err)
	}

	netB := transport.NewInMem(transport.InMemOptions{})
	defer netB.Close()
	regB, commB := newLife()
	jB := openJournal()
	defer jB.Close()
	var key service.Key
	if err := jB.Replay(func(r *journal.Record) error {
		if r.Kind == journal.KindInvoke {
			key = service.Key{Composite: r.Composite, Instance: r.Instance, State: r.State, Seq: r.FireSeq}
		}
		return nil
	}); err != nil || key == (service.Key{}) {
		t.Fatalf("journaled invocation key %v, err %v", key, err)
	}
	hostsB, wB := buildDurableChain(t, netB, 1, regB, jB)
	defer wB.Close()
	for _, h := range hostsB {
		defer h.Close()
	}
	stats, err := engine.Recover(ctxWithTimeout(t), jB, hostsB, []*engine.Wrapper{wB})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Primed != 1 {
		t.Errorf("Primed = %d, want 1: the community's completed invocation (stats: %s)", stats.Primed, stats)
	}
	resp, err := commB.Invoke(ctxWithTimeout(t), service.Request{Operation: "run", Params: map[string]string{"x": "0"}, IdempotencyKey: key})
	if err != nil || resp.Outputs["x"] != "1" {
		t.Fatalf("replayed key: outputs %v, err %v", resp.Outputs, err)
	}
	if inv, _, _ := member.Counters(); inv != 1 {
		t.Errorf("member invoked %d times across both lives, want 1", inv)
	}
}

// TestRecoverRedeliversJournaledTypes: Recover rebuilds a redelivered
// message with origin.message — the one place a start/notify/done message
// is built — instead of trusting the record's OutMsg.Type. The two must
// agree on every message a journaled execution ever sent, or redelivery
// would change a frame's bytes.
func TestRecoverRedeliversJournaledTypes(t *testing.T) {
	j, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	reg := service.NewRegistry()
	if _, err := workload.RegisterTravelProviders(reg, service.SimulatedOptions{}); err != nil {
		t.Fatal(err)
	}
	funcs := engine.Funcs(workload.TravelGuards())
	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, "travel-host", reg, dir, engine.HostOptions{Journal: j, Funcs: funcs})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	sc := workload.Travel()
	placed := map[string]*engine.Host{}
	for _, svc := range sc.Services() {
		placed[svc] = h
	}
	w, err := engine.NewWrapper(net, "travel-wrapper", dir, installPlan(t, sc, 0, placed), engine.HostOptions{Journal: j, Funcs: funcs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Both sides of the XOR, with and without the car rental.
	for _, req := range []map[string]string{
		workload.TravelRequest("alice", "sydney", true),
		workload.TravelRequest("bob", "melbourne", true),
		workload.TravelRequest("carol", "tokyo", false),
	} {
		if _, err := w.Execute(ctxWithTimeout(t), req); err != nil {
			t.Fatal(err)
		}
	}

	seen := map[string]int{}
	err = j.Replay(func(r *journal.Record) error {
		for _, om := range r.Msgs {
			seen[om.Type]++
			if got := engine.MessageType(r.State, om.To); string(got) != om.Type {
				t.Errorf("round of %s: message to %s journaled as %q, rebuilt as %q", r.State, om.To, om.Type, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen[string(message.TypeNotify)] == 0 || seen[string(message.TypeDone)] == 0 || len(seen) != 2 {
		t.Fatalf("journaled message types = %v, want notifies and dones only", seen)
	}
}
