package engine_test

// Replay ≡ live, compared state against state (docs/durability.md).
// TestEngineCrashRecoveryMidChain shows that a recovered execution
// completes; this suite shows WHY it may: the instance Recover rebuilds
// from a journal directory holds, field for field, the kernel state the
// crashed process held in RAM — counts, per-source bags, base layer,
// dedup marks, fire and send sequence numbers — at the coordinators and
// at the wrapper alike. Two shapes are driven part-way and then killed:
// Parallel(8), whose AND-join sits half-armed at the wrapper with four
// branches finished and four mid-invocation, and a loop chart stopped
// inside its second iteration.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"selfserv/internal/engine"
	"selfserv/internal/journal"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// buildDurable deploys sc over net with every host and the wrapper
// journaling to j — one host per service, deterministic addresses so a
// second life's fabric is shaped exactly like the first's.
func buildDurable(t *testing.T, net transport.Network, sc *statechart.Statechart, reg *service.Registry, j *journal.Journal, logf func(string, ...any)) ([]*engine.Host, *engine.Wrapper) {
	t.Helper()
	dir := engine.NewDirectory()
	placed := map[string]*engine.Host{}
	var hosts []*engine.Host
	for i, svc := range sc.Services() {
		h, err := engine.NewHost(net, fmt.Sprintf("rec-host-%d", i), reg, dir, engine.HostOptions{Journal: j, Logf: logf})
		if err != nil {
			t.Fatalf("NewHost(%s): %v", svc, err)
		}
		hosts = append(hosts, h)
		placed[svc] = h
	}
	w, err := engine.NewWrapper(net, "rec-wrapper", dir, installPlan(t, sc, 0, placed), nil)
	if err != nil {
		t.Fatalf("NewWrapper: %v", err)
	}
	w.SetJournal(j)
	return hosts, w
}

// lifeGate holds one life's gated provider calls: a gated call
// announces itself on reached and then blocks until open is closed.
type lifeGate struct {
	reached chan string
	open    chan struct{}
}

func (g *lifeGate) hold(who string) {
	g.reached <- who
	<-g.open
}

// loopChart is a -> b; b -> a while x < 3 (b increments x); b -> end
// when x >= 3.
func loopChart() *statechart.Statechart {
	bind := []statechart.Binding{{Param: "x", Var: "x"}}
	return &statechart.Statechart{
		Name:    "Looper",
		Inputs:  []statechart.Param{{Name: "x", Type: "number"}},
		Outputs: []statechart.Param{{Name: "x", Type: "number"}},
		Root: &statechart.State{
			ID: "root", Kind: statechart.KindCompound,
			Children: []*statechart.State{
				{ID: "init", Kind: statechart.KindInitial},
				{ID: "a", Kind: statechart.KindBasic, Service: "A", Operation: "op", Inputs: bind, Outputs: bind},
				{ID: "b", Kind: statechart.KindBasic, Service: "B", Operation: "op", Inputs: bind, Outputs: bind},
				{ID: "end", Kind: statechart.KindFinal},
			},
			Transitions: []statechart.Transition{
				{From: "init", To: "a"},
				{From: "a", To: "b"},
				{From: "b", To: "a", Condition: "x < 3"},
				{From: "b", To: "end", Condition: "x >= 3"},
			},
		},
	}
}

// durableLife is one process lifetime of a journaled fabric.
type durableLife struct {
	gate   *lifeGate
	rounds chan struct{} // one token per coordinator round flushed
	net    *transport.InMem
	jnl    *journal.Journal
	hosts  []*engine.Host
	w      *engine.Wrapper
}

// startDurableLife builds a fabric for sc over the journal directory;
// its held provider calls resume when open is closed. The synchronous
// network delivers a round's notifications before its flush returns, so
// by the time a host logs the round as notified its receivers have
// journaled and applied it.
func startDurableLife(t *testing.T, jdir string, open chan struct{}, sc *statechart.Statechart, providers func(*lifeGate) []*service.Simulated) *durableLife {
	t.Helper()
	l := &durableLife{
		gate:   &lifeGate{reached: make(chan string, 8), open: open}, // 8: most calls a case holds
		rounds: make(chan struct{}, 64),                              // ample for either chart run to completion
	}
	reg := service.NewRegistry()
	for _, p := range providers(l.gate) {
		reg.Register(service.NewIdempotent(p, 0))
	}
	var err error
	l.jnl, err = journal.Open(journal.Options{Dir: jdir, Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatalf("journal.Open: %v", err)
	}
	l.net = transport.NewInMem(transport.InMemOptions{Synchronous: true})
	l.hosts, l.w = buildDurable(t, l.net, sc, reg, l.jnl, func(format string, _ ...any) {
		if strings.Contains(format, "notified %d peer(s)") {
			l.rounds <- struct{}{}
		}
	})
	return l
}

// kill is the state a process kill leaves behind: endpoints closed and
// the journal abandoned, nothing drained, nothing staged written, no
// completion records.
func (l *durableLife) kill() {
	l.w.Kill()
	for _, h := range l.hosts {
		h.Close()
	}
	l.jnl.Abandon()
	l.net.Close()
}

func TestReplayedStateEqualsLiveState(t *testing.T) {
	parseX := func(p map[string]string) (x int) {
		fmt.Sscanf(p["x"], "%d", &x)
		return x
	}
	cases := []struct {
		name  string
		chart *statechart.Statechart
		// providers builds one life's providers; calls that must stop the
		// execution part-way go through the gate's hold.
		providers func(g *lifeGate) []*service.Simulated
		held      int // gated calls in flight at the part-way point
		rounds    int // coordinator rounds finished by then
		in, want  map[string]string
	}{
		{
			// Branches 1-4 finish and their termination notices half-arm the
			// wrapper's 8-source AND-join; branches 5-8 are mid-invocation.
			name:  "parallel8-join",
			chart: workload.Parallel(8),
			providers: func(g *lifeGate) []*service.Simulated {
				var out []*service.Simulated
				for i := 1; i <= 8; i++ {
					i := i
					s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
					s.Handle("run", func(_ context.Context, p map[string]string) (map[string]string, error) {
						if i > 4 {
							g.hold(fmt.Sprintf("svc%d", i))
						}
						return map[string]string{"y": fmt.Sprint(parseX(p) + i)}, nil
					})
					out = append(out, s)
				}
				return out
			},
			held: 4, rounds: 4,
			in:   map[string]string{"x": "10"},
			want: map[string]string{"x": "10", "y1": "11"},
		},
		{
			// a, b, a have finished a round each; b's second invocation
			// (x = 1) is in flight, its clause consumed but no round written.
			name:  "loop-second-iteration",
			chart: loopChart(),
			providers: func(g *lifeGate) []*service.Simulated {
				a := service.NewSimulated("A", service.SimulatedOptions{}).Echo("op")
				b := service.NewSimulated("B", service.SimulatedOptions{})
				b.Handle("op", func(_ context.Context, p map[string]string) (map[string]string, error) {
					if parseX(p) == 1 {
						g.hold("B")
					}
					return map[string]string{"x": fmt.Sprint(parseX(p) + 1)}, nil
				})
				return []*service.Simulated{a, b}
			},
			held: 1, rounds: 3,
			in:   map[string]string{"x": "0"},
			want: map[string]string{"x": "3"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Life A's held provider calls outlive its kill. Its journal is
			// closed by then, so whatever they go on to commit is refused
			// (journal.ErrClosed) and never reaches life B's directory.
			releaseA := make(chan struct{})
			defer close(releaseA)
			jdir := t.TempDir()
			ctx := ctxWithTimeout(t)
			await := func(what string, n int, ch <-chan struct{}, names <-chan string) {
				t.Helper()
				for i := 0; i < n; i++ {
					select {
					case <-ch:
					case <-names:
					case <-ctx.Done():
						t.Fatalf("stopped short of the part-way point: %d/%d %s", i, n, what)
					}
				}
			}

			// --- life A: run part-way, photograph, kill -------------------
			a := startDurableLife(t, jdir, releaseA, tc.chart, tc.providers)
			ctxA, cancelA := context.WithCancel(context.Background())
			defer cancelA()
			execDone := make(chan struct{})
			go func() {
				defer close(execDone)
				a.w.ExecuteInstance(ctxA, "rec-1", tc.in) // dies with the process
			}()
			await("held provider calls", tc.held, nil, a.gate.reached)
			await("finished rounds", tc.rounds, a.rounds, nil)
			live := engine.KernelSnapshots(a.hosts, []*engine.Wrapper{a.w})
			a.kill()
			cancelA()
			<-execDone

			// --- life B: same journal directory, same gates --------------
			releaseB := make(chan struct{})
			b := startDurableLife(t, jdir, releaseB, tc.chart, tc.providers)
			defer b.kill()
			if _, err := engine.Recover(ctx, b.jnl, b.hosts, []*engine.Wrapper{b.w}); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			// Recovery re-fired the interrupted rounds; they stop at the same
			// provider calls life A was killed in.
			await("re-fired provider calls", tc.held, nil, b.gate.reached)
			replayed := engine.KernelSnapshots(b.hosts, []*engine.Wrapper{b.w})

			if len(live) == 0 {
				t.Fatal("life A had no instance in RAM to compare")
			}
			for key, was := range live {
				if got := replayed[key]; got != was {
					t.Errorf("%s\n    live: %s\nreplayed: %s", key, was, got)
				}
			}
			for key := range replayed {
				if _, ok := live[key]; !ok {
					t.Errorf("%s: rebuilt by recovery but absent from the live fabric", key)
				}
			}

			// The rebuilt state is not only equal but viable: released, the
			// execution finishes with the outputs an uninterrupted run gives.
			close(releaseB)
			out, err := b.w.WaitRecovered(ctx, "rec-1")
			if err != nil {
				t.Fatalf("WaitRecovered: %v", err)
			}
			if !reflect.DeepEqual(out, tc.want) {
				t.Errorf("recovered execution returned %v, want %v", out, tc.want)
			}
			// The restored execution's finalizer journals its completion and
			// leaves the in-flight gauge; nothing may still be appending when
			// the journal closes.
			if left := b.w.Drain(ctx); left != 0 {
				t.Errorf("%d restored execution(s) never left the in-flight gauge", left)
			}
		})
	}
}
