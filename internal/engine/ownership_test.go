package engine_test

// The bag-ownership rule at the engine's edges (docs/engine.md, "Who owns
// a bag"), and the window between a round's flush and its loop re-check
// that the same sender hook makes reachable: both need a transport.Sender
// that does something of its own with the round's message before the
// flush returns.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/journal"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/transport"
)

// hookNet is a network whose Senders run hook in place of Send; hook gets
// the real Sender to pass the message on with.
type hookNet struct {
	transport.Network
	hook func(ctx context.Context, inner transport.Sender, to string, m *message.Message) error
}

func (n *hookNet) Open(from string) transport.Sender {
	return &hookSender{Sender: n.Network.Open(from), hook: n.hook}
}

type hookSender struct {
	transport.Sender
	hook func(ctx context.Context, inner transport.Sender, to string, m *message.Message) error
}

func (s *hookSender) Send(ctx context.Context, to string, m *message.Message) error {
	return s.hook(ctx, s.Sender, to, m)
}

// keep copies a delivered message for a test sink to look at after its
// handler returns: a transport.Handler borrows the *Message for the call.
func keep(m *message.Message) *message.Message {
	kept := *m
	return &kept
}

// keyedProvider serves state a of loopChart, passing x through (with mark
// appended), and records the idempotency key of every invocation; before
// (when set) runs inside each call, while the firing's instance is marked
// running.
type keyedProvider struct {
	mu     sync.Mutex
	keys   []service.Key
	before func(key service.Key)
	mark   string
}

func (p *keyedProvider) Name() string         { return "A" }
func (p *keyedProvider) Operations() []string { return []string{"op"} }

func (p *keyedProvider) Invoke(_ context.Context, req service.Request) (service.Response, error) {
	p.mu.Lock()
	p.keys = append(p.keys, req.IdempotencyKey)
	p.mu.Unlock()
	if p.before != nil {
		p.before(req.IdempotencyKey)
	}
	return service.Response{Outputs: map[string]string{"x": req.Params["x"] + p.mark}}, nil
}

func (p *keyedProvider) keysOf(instance string) []service.Key {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []service.Key
	for _, k := range p.keys {
		if k.Instance == instance {
			out = append(out, k)
		}
	}
	return out
}

// loopHost is one host running state a of loopChart — entered from the
// wrapper, re-entered from b while x < 3 — with its successor b played
// by a sink the test reads. Frames "from b" are the test's to send.
type loopHost struct {
	net  transport.Network
	host *engine.Host
	sunk chan *message.Message
	seen map[string]int // frames taken off sunk so far, by instance
}

func startLoopHost(t *testing.T, net transport.Network, prov service.Provider, opts engine.HostOptions) *loopHost {
	t.Helper()
	plan, err := routing.Generate(loopChart(3))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	reg := service.NewRegistry()
	reg.Register(prov)
	dir := engine.NewDirectory()
	l := &loopHost{net: net, seen: map[string]int{},
		sunk: make(chan *message.Message, 4096)} // every frame a case sends fits
	if l.host, err = engine.NewHost(net, "loop-host", reg, dir, opts); err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	if err := engine.InstallTable(l.host, "Looper", plan.Tables["a"]); err != nil {
		t.Fatalf("Install: %v", err)
	}
	sink, err := net.Listen("loop-sink", func(_ context.Context, m *message.Message) { l.sunk <- keep(m) })
	if err != nil {
		t.Fatal(err)
	}
	dir.Set("Looper", "b", sink.Addr())
	return l
}

func (l *loopHost) notify(t *testing.T, instance, from string, vars map[string]string) {
	t.Helper()
	err := l.net.Send(context.Background(), l.host.Addr(), &message.Message{
		Type: message.TypeNotify, Composite: "Looper", Instance: instance, From: from, To: "a", Vars: vars,
	})
	if err != nil {
		t.Errorf("notify %s<-%s: %v", instance, from, err)
	}
}

// await reads the sink until cond holds of the per-instance frame counts
// and returns the last frame read.
func (l *loopHost) await(t *testing.T, what string, cond func(seen map[string]int) bool) *message.Message {
	t.Helper()
	var last *message.Message
	for !cond(l.seen) {
		select {
		case last = <-l.sunk:
			l.seen[last.Instance]++
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still waiting; rounds that reached the successor so far: %v", what, l.seen)
		}
	}
	return last
}

// rounds is the await condition "instance has sent n frames".
func rounds(instance string, n int) func(map[string]int) bool {
	return func(seen map[string]int) bool { return seen[instance] >= n }
}

// TestLentBaseIsNeverWritten holds the engine to the read-only half of
// the lending rule. A round's bag becomes the instance's base layer while
// the round's message — the same map — is still in a sender's hands;
// here the sender keeps a copy of it for good (the message itself is the
// firing worker's again once Send returns, transport.Sender; its Vars
// are the lent bag) and a reader marshals the copy over and over while the instance takes a frame from outside its universe (a
// base-layer write) and runs a second round. The kept message must encode
// to the bytes it had when it was sent, and the race detector must have
// nothing to say about the reader.
func TestLentBaseIsNeverWritten(t *testing.T) {
	var mu sync.Mutex
	var kept *message.Message
	var keptBytes []byte
	net := &hookNet{Network: transport.NewInMem(transport.InMemOptions{Synchronous: true})}
	net.hook = func(ctx context.Context, inner transport.Sender, to string, m *message.Message) error {
		mu.Lock()
		if kept == nil {
			cp := *m
			kept = &cp
			keptBytes, _ = message.Marshal(m)
		}
		mu.Unlock()
		return inner.Send(ctx, to, m)
	}
	defer net.Close()
	l := startLoopHost(t, net, &keyedProvider{}, engine.HostOptions{})
	defer l.host.Close()

	l.notify(t, "i1", message.WrapperID, map[string]string{"x": "0", "kept": "as sent"})
	l.await(t, "first round", rounds("i1", 1))

	stop := make(chan struct{})
	read := make(chan string, 1)
	go func() {
		for {
			select {
			case <-stop:
				read <- ""
				return
			default:
			}
			if now, err := message.Marshal(kept); err != nil || !bytes.Equal(now, keptBytes) {
				read <- fmt.Sprintf("the kept message now encodes to %q (%v), was %q", now, err, keptBytes)
				return
			}
		}
	}()
	for round := 1; round <= 20; round++ {
		x := fmt.Sprint(round)
		l.notify(t, "i1", "a-stranger", map[string]string{"x": "from a stranger", "kept": "overwritten", "new" + x: x})
		l.notify(t, "i1", "b", map[string]string{"x": x})
		got := l.await(t, "round after a base write", rounds("i1", round+1))
		if got.Vars["x"] != x || got.Vars["kept"] != "overwritten" || got.Vars["new"+x] != x {
			t.Fatalf("round %d sent %v: the base write or the loop's own x is missing", round, got.Vars)
		}
	}
	close(stop)
	if changed := <-read; changed != "" {
		t.Fatal(changed)
	}
}

// TestStartMessagesReadTheLentInputs: an execution makes ONE copy of its
// request inputs, which is the instance's base layer and the bag of its
// start messages at once — lent, so both only read it. Here the sender
// holds the start message while an event for the same instance writes the
// base layer (its payload redefines an input), and marshals the message
// over and over meanwhile: the bytes must not move, the race detector must
// have nothing to say, and the client's own map is still the client's.
func TestStartMessagesReadTheLentInputs(t *testing.T) {
	ctx := ctxWithTimeout(t)
	var f *fabric
	var once sync.Once
	net := &hookNet{Network: transport.NewInMem(transport.InMemOptions{})}
	t.Cleanup(func() { net.Close() })
	net.hook = func(ctx context.Context, inner transport.Sender, to string, m *message.Message) error {
		if m.Type == message.TypeStart {
			once.Do(func() {
				was, _ := message.Marshal(m)
				raised := make(chan error, 1)
				go func() {
					raised <- f.wrapper.RaiseEvent(ctx, m.Instance, "confirm", map[string]string{"item": "overwritten", "approver": "boss"})
				}()
				for done := false; !done; {
					select {
					case err := <-raised:
						if err != nil {
							t.Errorf("RaiseEvent: %v", err)
						}
						done = true
					default:
					}
					if now, err := message.Marshal(m); err != nil || !bytes.Equal(now, was) {
						t.Errorf("the start message now encodes to %q (%v), was %q", now, err, was)
						return
					}
				}
			})
		}
		return inner.Send(ctx, to, m)
	}
	reg := service.NewRegistry()
	reg.Register(service.NewSimulated("Quoter", service.SimulatedOptions{}).Echo("quote"))
	reg.Register(service.NewSimulated("Purchaser", service.SimulatedOptions{}).Echo("buy"))
	f = buildFabricOn(t, net, eventChart(""), reg, nil)

	inputs := map[string]string{"item": "widget"}
	if _, err := f.wrapper.ExecuteInstance(ctx, "ev1", inputs); err != nil {
		t.Fatalf("ExecuteInstance: %v", err)
	}
	if fmt.Sprint(inputs) != "map[item:widget]" {
		t.Errorf("the client's inputs are now %v", inputs)
	}
}

// TestTakenLayerIsNotWrittenBeforeFinish holds the firing to the rule that
// lets it take a source's layer instead of a copy (marking.takeVars): it
// writes the bag only at finish, under the instance lock. i1's first
// firing takes the wrapper's layer; while its provider is blocked a second
// notification from the wrapper lands on another goroutine, and the
// provider returns once that arrival is journaled — with its handler
// holding the instance lock, about to copy the taken layer. A firing that
// bound its outputs on the way back from the provider, outside the lock,
// would write the map the handler is reading: the race detector says so,
// and without it the arrival's copy may pick the outputs up and the
// second round show them. Then replay ≡ live over the journal directory:
// the layer that arrival left behind is what its two records rebuild.
func TestTakenLayerIsNotWrittenBeforeFinish(t *testing.T) {
	jdir := t.TempDir()
	j, err := journal.Open(journal.Options{Dir: jdir, Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	net := transport.NewInMem(transport.InMemOptions{Synchronous: true})
	var l *loopHost
	landed := make(chan struct{})
	prov := &keyedProvider{mark: "'"}
	prov.before = func(key service.Key) {
		if key != (service.Key{Composite: "Looper", Instance: "i1", State: "a", Seq: 1}) {
			return
		}
		records := j.Stats().Appends
		go func() {
			defer close(landed)
			l.notify(t, "i1", message.WrapperID, map[string]string{"late": "yes"})
		}()
		for j.Stats().Appends == records {
			time.Sleep(50 * time.Microsecond)
		}
	}
	opts := engine.HostOptions{Journal: j}
	l = startLoopHost(t, net, prov, opts)

	l.notify(t, "i1", message.WrapperID, map[string]string{"x": "0"})
	first := l.await(t, "first round", rounds("i1", 1))
	if first.Vars["x"] != "0'" || first.Vars["late"] != "" {
		t.Errorf("the first round sent %v: its firing took the layer as it was before the late arrival", first.Vars)
	}
	<-landed
	// The late notification is pending and its layer — a copy of the taken
	// one, as taken — overrides the first round's results.
	second := l.await(t, "second round", rounds("i1", 2))
	if second.Vars["x"] != "0'" || second.Vars["late"] != "yes" {
		t.Errorf("the second round sent %v, want x=0' (the unwritten x=0 through the provider once) and late=yes", second.Vars)
	}

	live := engine.KernelSnapshots([]*engine.Host{l.host}, nil)
	l.host.Close()
	j.Close()
	net.Close()
	if live["Looper/a/v0/i1"] == "" {
		t.Fatalf("i1 is not in RAM after its second round; in RAM: %v", live)
	}
	j2, err := journal.Open(journal.Options{Dir: jdir, Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatalf("journal.Open (second life): %v", err)
	}
	defer j2.Close()
	net2 := transport.NewInMem(transport.InMemOptions{Synchronous: true})
	defer net2.Close()
	opts.Journal = j2
	l2 := startLoopHost(t, net2, &keyedProvider{}, opts)
	defer l2.host.Close()
	if _, err := engine.Recover(ctxWithTimeout(t), j2, []*engine.Host{l2.host}, nil); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if replayed := engine.KernelSnapshots([]*engine.Host{l2.host}, nil); fmt.Sprint(replayed) != fmt.Sprint(live) {
		t.Errorf("    live: %v\nreplayed: %v", live, replayed)
	}
}

// TestFinishChecksLoopClausesOnTheTablesInstance closes the window after
// a round's flush. finish used to re-lock the instance object it was
// started with and check its loop clauses without asking whether the
// table still held that object. The flush runs with the instance idle and
// unlocked, so at the cap a create in its shard may passivate it right
// then; the orphan, re-fired by a loop notification that had arrived
// during the invocation, journaled a round AFTER the passivation record,
// which un-indexed it — the instance was then neither in RAM nor passive,
// and its next frame started over from fireSeq 0 under idempotency keys
// already used. Here the sender itself opens the window: before passing
// on i1's first round it drives other instances through the same
// coordinator until i1 is passive.
func TestFinishChecksLoopClausesOnTheTablesInstance(t *testing.T) {
	jdir := t.TempDir()
	j, err := journal.Open(journal.Options{Dir: jdir, Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	var l *loopHost
	var once sync.Once
	others := 0
	net := &hookNet{Network: transport.NewInMem(transport.InMemOptions{Synchronous: true})}
	net.hook = func(ctx context.Context, inner transport.Sender, to string, m *message.Message) error {
		if m.Instance == "i1" {
			once.Do(func() {
				passive := func() bool {
					p, err := j.IsPassive("Looper", "a", 0, "i1")
					if err != nil {
						t.Errorf("IsPassive: %v", err)
					}
					return p || err != nil
				}
				for ; others < 2000 && !passive(); others++ {
					l.notify(t, fmt.Sprintf("other%d", others), message.WrapperID, map[string]string{"x": "0"})
				}
			})
		}
		return inner.Send(ctx, to, m)
	}
	prov := &keyedProvider{}
	prov.before = func(key service.Key) {
		// The loop comes round while i1's first firing is still running:
		// the frame is counted and waits for finish's re-check.
		if key == (service.Key{Composite: "Looper", Instance: "i1", State: "a", Seq: 1}) {
			l.notify(t, "i1", "b", map[string]string{"x": "1"})
		}
	}
	opts := engine.HostOptions{MaxInstancesPerState: 1, Journal: j}
	l = startLoopHost(t, net, prov, opts)

	l.notify(t, "i1", message.WrapperID, map[string]string{"x": "0"})
	// Round 1 and the round of the frame that waited; others is settled
	// once the first of them is through the sender.
	l.await(t, "i1's first two rounds", rounds("i1", 2))
	l.await(t, "every other instance's one round", func(seen map[string]int) bool {
		n := 0
		for instance, frames := range seen {
			if instance != "i1" {
				n += frames
			}
		}
		return n >= others
	})
	if !(others > 0 && others < 2000) || l.host.Passivated() == 0 {
		t.Fatalf("drove %d other instance(s), %d passivation(s): i1 never left the table mid-flush", others, l.host.Passivated())
	}
	l.notify(t, "i1", "b", map[string]string{"x": "2"})
	l.await(t, "third round", rounds("i1", 3))

	var want []service.Key
	for seq := uint64(1); seq <= 3; seq++ {
		want = append(want, service.Key{Composite: "Looper", Instance: "i1", State: "a", Seq: seq})
	}
	if got := prov.keysOf("i1"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("i1 invoked its provider under %v, want one invocation per firing: %v", got, want)
	}
	if l.host.Evicted() != 0 {
		t.Errorf("%d instance(s) lost to eviction with a journal configured", l.host.Evicted())
	}

	// Replay ≡ live: a second life over the same journal directory rebuilds
	// exactly the instances the first held in RAM, state for state.
	live := engine.KernelSnapshots([]*engine.Host{l.host}, nil)
	l.host.Close()
	j.Close()
	net.Close()
	if live["Looper/a/v0/i1"] == "" {
		t.Fatalf("i1 is not in RAM after its third round; in RAM: %d instance(s)", len(live))
	}

	j2, err := journal.Open(journal.Options{Dir: jdir, Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatalf("journal.Open (second life): %v", err)
	}
	defer j2.Close()
	net2 := transport.NewInMem(transport.InMemOptions{Synchronous: true})
	defer net2.Close()
	opts.Journal = j2
	l2 := startLoopHost(t, net2, &keyedProvider{}, opts)
	defer l2.host.Close()
	passiveAtOpen := map[string]bool{}
	for key := range live {
		instance := key[strings.LastIndex(key, "/")+1:]
		if passiveAtOpen[instance], err = j2.IsPassive("Looper", "a", 0, instance); err != nil {
			t.Fatalf("IsPassive: %v", err)
		}
	}
	if _, err := engine.Recover(ctxWithTimeout(t), j2, []*engine.Host{l2.host}, nil); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	replayed := engine.KernelSnapshots([]*engine.Host{l2.host}, nil)
	for key, was := range live {
		got, ok := replayed[key]
		if instance := key[strings.LastIndex(key, "/")+1:]; !ok && passiveAtOpen[instance] {
			// finish rehydrated it to check its clauses and nothing fired, so
			// its last record is still the passivation: the second life keeps
			// it on disk, where the first had it in RAM. Same state.
			continue
		}
		if got != was {
			t.Errorf("%s\n    live: %s\nreplayed: %s", key, was, got)
		}
	}
	for key := range replayed {
		if _, ok := live[key]; !ok {
			t.Errorf("%s: rebuilt by recovery but absent from the live fabric", key)
		}
	}
}
