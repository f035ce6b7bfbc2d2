package core_test

// The durability contract suite (docs/durability.md), run over BOTH
// transports like the churn suite. These pin the acceptance criteria of
// the durable-instance layer:
//
//   - A platform killed mid-Chain(8) and rebuilt over the same journal
//     directory completes the interrupted composite with ZERO duplicate
//     provider invocations (journal replay + idempotency priming +
//     sequence-deduped redelivery) and zero lost instances.
//   - Passivated-then-rehydrated instances produce byte-identical
//     outcomes to never-passivated runs, and passivation fully replaces
//     lossy eviction while a journal is configured.
//   - Without a journal, cap-hit eviction is LOUD: counted in the
//     Evicted stat and logged — and reserved for state the plan could not
//     prove finished (a once state's instance retires instead).
//   - One write(2) per effect boundary: a Chain(8) execution is 19
//     writes whatever it records, and a kill at either side of a staged
//     record loses nothing an effect had waited for.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"selfserv/internal/core"
	"selfserv/internal/engine"
	"selfserv/internal/expr"
	"selfserv/internal/hostapi"
	"selfserv/internal/journal"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/workload"
)

// durabilityOpts configures a journal in dir, fsync off (the suite
// kills processes, not kernels; CI must not pay fsync latency).
func durabilityOpts(dir string) core.Options {
	return core.Options{
		Durability: journal.Options{Dir: dir, Fsync: journal.FsyncOff},
	}
}

// TestDurabilityCrashRecoveryMidChain is THE crash-recovery contract:
// platform A runs Chain(8) and is killed while state 5's provider is
// executing; platform B — fresh provider objects, same journal dir,
// same chart re-deployed — recovers, finishes the instance, and no
// provider anywhere executed twice for a completed invocation. States
// 1–4 completed in life A and must NOT re-execute in life B (their
// rounds replay from the journal); state 5 was in doubt at the kill and
// legally re-executes once; states 6–8 run only in life B.
func TestDurabilityCrashRecoveryMidChain(t *testing.T) {
	const n = 8
	for _, impl := range churnImpls() {
		t.Run(impl.name, func(t *testing.T) {
			dir := t.TempDir()

			// --- life A -------------------------------------------------
			pA := impl.newPlatform(t, durabilityOpts(dir))
			if err := pA.DurabilityError(); err != nil {
				t.Fatalf("journal: %v", err)
			}
			hA1, err := pA.AddHost(impl.hostAddr(1))
			if err != nil {
				t.Fatalf("AddHost: %v", err)
			}
			hA2, err := pA.AddHost(impl.hostAddr(2))
			if err != nil {
				t.Fatalf("AddHost: %v", err)
			}
			reached5 := make(chan struct{})
			gate := make(chan struct{})
			defer close(gate) // release life A's stuck provider goroutine
			var reachedOnce sync.Once
			aSims := map[int]*service.Simulated{}
			for i := 1; i <= n; i++ {
				s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
				if i == 5 {
					s.Handle("run", func(ctx context.Context, params map[string]string) (map[string]string, error) {
						reachedOnce.Do(func() { close(reached5) })
						<-gate // the kill lands while this invocation is in flight
						return incr(ctx, params)
					})
				} else {
					s.Handle("run", incr)
				}
				aSims[i] = s
				host := hA1
				if i%2 == 0 {
					host = hA2
				}
				pA.RegisterService(host, service.NewIdempotent(s, 0))
			}
			compA, err := pA.Deploy(workload.Chain(n))
			if err != nil {
				t.Fatalf("Deploy: %v", err)
			}
			ctxA, cancelA := context.WithCancel(context.Background())
			defer cancelA()
			execDone := make(chan struct{})
			go func() {
				defer close(execDone)
				// The client of life A: its Execute dies with the process.
				compA.ExecuteInstance(ctxA, "crash-1", map[string]string{"x": "0"})
			}()
			select {
			case <-reached5:
			case <-churnCtx(t).Done():
				t.Fatal("state 5 never reached")
			}
			pA.Crash() // kill: endpoints close, the journal is abandoned, nothing drains
			cancelA()
			<-execDone

			// --- life B -------------------------------------------------
			pB := impl.newPlatform(t, durabilityOpts(dir))
			if err := pB.DurabilityError(); err != nil {
				t.Fatalf("reopen journal: %v", err)
			}
			hB1, err := pB.AddHost(impl.hostAddr(3))
			if err != nil {
				t.Fatalf("AddHost: %v", err)
			}
			hB2, err := pB.AddHost(impl.hostAddr(4))
			if err != nil {
				t.Fatalf("AddHost: %v", err)
			}
			bSims := map[int]*service.Simulated{}
			for i := 1; i <= n; i++ {
				s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
				s.Handle("run", incr)
				bSims[i] = s
				host := hB1
				if i%2 == 0 {
					host = hB2
				}
				pB.RegisterService(host, service.NewIdempotent(s, 0))
			}
			// Re-deploying the same chart on a fresh platform reproduces
			// plan version 1 — the version the journal records name.
			compB, err := pB.Deploy(workload.Chain(n))
			if err != nil {
				t.Fatalf("redeploy: %v", err)
			}
			ctx := churnCtx(t)
			stats, err := pB.Recover(ctx)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if stats.Wrappers != 1 {
				t.Errorf("recovered wrappers = %d, want 1 (stats: %s)", stats.Wrappers, stats)
			}
			found := false
			for _, id := range compB.Recovered() {
				if id == "crash-1" {
					found = true
				}
			}
			if !found {
				t.Fatalf("instance crash-1 lost: recovered = %v", compB.Recovered())
			}
			out, err := compB.WaitRecovered(ctx, "crash-1")
			if err != nil {
				t.Fatalf("WaitRecovered: %v", err)
			}
			if out["x"] != strconv.Itoa(n) {
				t.Fatalf("x = %q, want %d", out["x"], n)
			}

			// Zero duplicate invocations across both lives: completed steps
			// ran exactly once, in exactly one life. Step 5 — in doubt at
			// the kill, its outcome never journaled — re-executes in B.
			for i := 1; i <= 4; i++ {
				if inv, _, _ := aSims[i].Counters(); inv != 1 {
					t.Errorf("life A svc%d invoked %d times, want 1", i, inv)
				}
				if inv, _, _ := bSims[i].Counters(); inv != 0 {
					t.Errorf("life B svc%d invoked %d times, want 0 (round was journaled)", i, inv)
				}
			}
			for i := 5; i <= n; i++ {
				if inv, _, _ := bSims[i].Counters(); inv != 1 {
					t.Errorf("life B svc%d invoked %d times, want 1", i, inv)
				}
			}
			for i := 6; i <= n; i++ {
				if inv, _, _ := aSims[i].Counters(); inv != 0 {
					t.Errorf("life A svc%d invoked %d times, want 0", i, inv)
				}
			}
		})
	}
}

// TestRecoverFindsEveryFinishedExecution replays a journal that holds
// only completed work: N Chain(4) executions, then a kill. The fresh
// platform over the same directory must count every one of them as
// finished by its wdone record and rebuild no wrapper execution: none is
// waiting on a result it already delivered.
//
// Every coordinator instance comes back, 4 per execution. A journaling
// host does not retire yet (docs/durability.md): nothing in the journal
// tells a coordinator its execution is over, and the rebuilt instances
// carry the dedup marks that drop the rounds replay redelivers to them.
// A retire record that lets replay skip them moves this count to 0.
func TestRecoverFindsEveryFinishedExecution(t *testing.T) {
	const chain, execs = 4, 32
	dir := t.TempDir()
	life := func() (*core.Platform, *core.Composite) {
		p := core.New(durabilityOpts(dir))
		t.Cleanup(func() { p.Close() })
		if err := p.DurabilityError(); err != nil {
			t.Fatalf("journal: %v", err)
		}
		h, err := p.AddHost("recover-host")
		if err != nil {
			t.Fatalf("AddHost: %v", err)
		}
		for i := 1; i <= chain; i++ {
			s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
			s.Handle("run", incr)
			p.RegisterService(h, service.NewIdempotent(s, 0))
		}
		comp, err := p.Deploy(workload.Chain(chain))
		if err != nil {
			t.Fatalf("Deploy: %v", err)
		}
		return p, comp
	}

	ctx := churnCtx(t)
	pA, compA := life()
	for e := 0; e < execs; e++ {
		if out, err := compA.Execute(ctx, map[string]string{"x": "0"}); err != nil || out["x"] != strconv.Itoa(chain) {
			t.Fatalf("execution %d: %v, %v", e, out, err)
		}
	}
	pA.Crash()

	// Re-deploying the same chart reproduces plan version 1, the version
	// the journal records name.
	pB, _ := life()
	stats, err := pB.Recover(ctx)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Finished != execs || stats.Wrappers != 0 || stats.Coordinators != execs*chain {
		t.Errorf("replay of %d finished executions: %s; want finished=%d wrappers=0 coords=%d",
			execs, stats, execs, execs*chain)
	}
}

// TestRecoverNeverReusesAFinishedExecutionsID: the executions a replay
// finds finished still bring their coordinator instances back (above), so
// a fresh Execute after Recover must not be handed one of their IDs.
// Before the allocator was advanced past finished executions too, the
// fresh execution below became "i1" again, landed on the rebuilt instances
// of the first life's i1 and returned its answer, x=4, with a nil error.
func TestRecoverNeverReusesAFinishedExecutionsID(t *testing.T) {
	const chain, execs = 4, 8
	dir := t.TempDir()
	life := func() (*core.Platform, *core.Composite) {
		p := core.New(durabilityOpts(dir))
		t.Cleanup(func() { p.Close() })
		if err := p.DurabilityError(); err != nil {
			t.Fatalf("journal: %v", err)
		}
		h, err := p.AddHost("reuse-host")
		if err != nil {
			t.Fatalf("AddHost: %v", err)
		}
		for i := 1; i <= chain; i++ {
			s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
			s.Handle("run", incr)
			p.RegisterService(h, service.NewIdempotent(s, 0))
		}
		comp, err := p.Deploy(workload.Chain(chain))
		if err != nil {
			t.Fatalf("Deploy: %v", err)
		}
		return p, comp
	}

	ctx := churnCtx(t)
	pA, compA := life()
	for e := 0; e < execs; e++ {
		if out, err := compA.Execute(ctx, map[string]string{"x": "0"}); err != nil || out["x"] != strconv.Itoa(chain) {
			t.Fatalf("execution %d: %v, %v", e, out, err)
		}
	}
	pA.Crash()

	pB, compB := life()
	if _, err := pB.Recover(ctx); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	out, err := compB.Execute(ctx, map[string]string{"x": "100"})
	if want := strconv.Itoa(100 + chain); err != nil || out["x"] != want {
		t.Fatalf("a fresh execution after Recover returned x=%q (%v), want %s", out["x"], err, want)
	}
}

// TestDurabilityPassivateByteIdentical pins the platform-level
// passivation contract: with a journal and a cap of 1, enough
// concurrent executions pigeonhole instance IDs into the engine's
// 32-way striped tables, so cap-hit passivations are GUARANTEED — and
// every outcome stays byte-identical to a run with a cap nothing ever
// hits. Passivation fully replaces lossy eviction: Evicted stays zero.
// (Transparent rehydration of a passivated instance is pinned
// deterministically at the engine layer by
// TestPassivateRehydrateANDJoinDeterministic; Chain instances receive
// exactly one frame each, so they passivate but are never revisited.)
func TestDurabilityPassivateByteIdentical(t *testing.T) {
	const chain, execs = 4, 48
	for _, impl := range churnImpls() {
		t.Run(impl.name, func(t *testing.T) {
			run := func(cap int, dir string) ([]map[string]string, *engine.Host) {
				opts := durabilityOpts(dir)
				opts.HostOptions.MaxInstancesPerState = cap
				p := impl.newPlatform(t, opts)
				h, err := p.AddHost(impl.hostAddr(1))
				if err != nil {
					t.Fatalf("AddHost: %v", err)
				}
				for i := 1; i <= chain; i++ {
					s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
					s.Handle("run", incr)
					p.RegisterService(h, service.NewIdempotent(s, 0))
				}
				comp, err := p.Deploy(workload.Chain(chain))
				if err != nil {
					t.Fatalf("Deploy: %v", err)
				}
				ctx := churnCtx(t)
				// Sequential: every instance from an earlier execution is
				// idle (and hydrated) by the time a later one's bookkeeping
				// collides with it, so the cap-hit scan always finds a
				// passivatable victim — the pigeonhole guarantee is exact,
				// not scheduling-dependent.
				outs := make([]map[string]string, execs)
				for e := 0; e < execs; e++ {
					out, err := comp.Execute(ctx, map[string]string{"x": strconv.Itoa(e * 10)})
					if err != nil {
						t.Fatalf("execution %d: %v", e, err)
					}
					outs[e] = out
				}
				return outs, h
			}

			tight, tightHost := run(1, t.TempDir())
			roomy, roomyHost := run(execs*chain*2, t.TempDir())
			if !reflect.DeepEqual(tight, roomy) {
				t.Errorf("outcomes diverge:\n tight: %v\n roomy: %v", tight, roomy)
			}
			if got := tightHost.Evicted(); got != 0 {
				t.Errorf("tight-cap run evicted %d live instances; passivation must replace eviction", got)
			}
			if tightHost.Passivated() == 0 {
				t.Errorf("tight-cap run passivated nothing (cap 1, %d concurrent executions)", execs)
			}
			if got := roomyHost.Passivated(); got != 0 {
				t.Errorf("roomy-cap run passivated %d instances, want 0", got)
			}
		})
	}
}

// loopingChain2 is workload.Chain(2) with s2 going back to s1 until x
// reaches 4: both states are on a cycle, so the plan cannot prove that
// either fires once and their finished instances wait for the cap.
func loopingChain2() *statechart.Statechart {
	sc := workload.Chain(2)
	guarded := false
	for i, tr := range sc.Root.Transitions {
		if tr.To == sc.Root.Final().ID {
			sc.Root.Transitions[i].Condition = "x >= 4"
			guarded = true
		}
	}
	if !guarded {
		panic("loopingChain2: Chain has no transition into its final state")
	}
	sc.Root.Transitions = append(sc.Root.Transitions, statechart.Transition{From: "s2", To: "s1", Condition: "x < 4"})
	return sc
}

// TestDurabilityEvictionIsLoudWithoutJournal pins the satellite
// contract for the journal-less path: a cap-hit eviction of a live
// instance is counted in the Evicted stat and logged loudly, never a
// silent FIFO drop — and "evicted" means only that: the finished
// instances of a plain chain, which the plan proves fire once, are
// retired as their rounds end and the cap evicts none of them.
func TestDurabilityEvictionIsLoudWithoutJournal(t *testing.T) {
	for _, impl := range churnImpls() {
		t.Run(impl.name, func(t *testing.T) {
			var mu sync.Mutex
			var logs []string
			opts := core.Options{}
			opts.HostOptions.MaxInstancesPerState = 1
			opts.HostOptions.Logf = func(format string, args ...any) {
				mu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				mu.Unlock()
			}
			p := impl.newPlatform(t, opts)
			h, err := p.AddHost(impl.hostAddr(1))
			if err != nil {
				t.Fatalf("AddHost: %v", err)
			}
			for i := 1; i <= 2; i++ {
				s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
				s.Handle("run", incr)
				p.RegisterService(h, s)
			}
			ctx := churnCtx(t)
			// Sequential executions: instance bookkeeping is striped over a
			// 32-way table with shard-local caps, so 40 instance IDs
			// pigeonhole at least one stripe past the cap of 1 and evict an
			// earlier (idle, finished) instance — unless it retired.
			run := func(sc *statechart.Statechart) {
				comp, err := p.Deploy(sc)
				if err != nil {
					t.Fatalf("Deploy: %v", err)
				}
				for e := 0; e < 40; e++ {
					if _, err := comp.Execute(ctx, map[string]string{"x": "0"}); err != nil {
						t.Fatalf("execution %d: %v", e, err)
					}
				}
			}
			run(workload.Chain(2))
			if h.Evicted() != 0 || h.Retired() != 80 {
				t.Errorf("plain chain: Evicted = %d, Retired = %d, want 0 and 80", h.Evicted(), h.Retired())
			}
			run(loopingChain2())
			if got := h.Evicted(); got == 0 {
				t.Errorf("looping chain: Evicted = %d, want > 0", got)
			}
			mu.Lock()
			defer mu.Unlock()
			loud := false
			for _, l := range logs {
				if strings.Contains(l, "EVICTED") {
					loud = true
					break
				}
			}
			if !loud {
				t.Errorf("no loud eviction log line; got %d log lines", len(logs))
			}
		})
	}
}

// TestOnlyDurabilityJournals: the platform's journal comes from
// Options.Durability alone. A journal handed in through HostOptions with
// no Durability.Dir is not the platform's: no host or wrapper writes into
// it, so nothing journals behind a nil Journal(), and Recover answers
// ErrNoJournal.
func TestOnlyDurabilityJournals(t *testing.T) {
	j, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	p := core.New(core.Options{HostOptions: engine.HostOptions{Journal: j}})
	defer p.Close()
	h, err := p.AddHost("host")
	if err != nil {
		t.Fatalf("AddHost: %v", err)
	}
	for i := 1; i <= 2; i++ {
		s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
		s.Handle("run", incr)
		p.RegisterService(h, s)
	}
	comp, err := p.Deploy(workload.Chain(2))
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	ctx := churnCtx(t)
	if out, err := comp.Execute(ctx, map[string]string{"x": "0"}); err != nil || out["x"] != "2" {
		t.Fatalf("Execute = %v, %v; want x=2", out, err)
	}
	if got := j.Stats().Appends; got != 0 {
		t.Errorf("the platform journaled %d records into a journal it was not configured with", got)
	}
	if _, err := p.Recover(ctx); !errors.Is(err, hostapi.ErrNoJournal) {
		t.Errorf("Recover = %v, want ErrNoJournal", err)
	}
}

// TestCommitPointsPerChainExecution pins what a Chain(8) execution costs
// the journal's fd. It records 27 times — wstart, then arrival, invoke
// and round at each of 8 coordinators, then warrival and wdone — and, at
// the instance cap (any deployment's steady state), 8 more: every new
// instance evicts a finished one at each coordinator, which passivates.
// It WRITES 19 times either way: the 8 invoke records ride their rounds
// and the passivations ride whatever their shard commits next, because
// no effect waits for either (docs/durability.md, "One write per effect
// boundary"). Under FsyncAlways a write is a sync, so 19 of those too.
func TestCommitPointsPerChainExecution(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name        string
		cap         int // per-state instance cap; 0 is the default, never reached here
		warm, execs int
		fsync       journal.FsyncMode
		records     uint64 // per execution
	}{
		{"below the cap", 0, 4, 32, journal.FsyncOff, 27},
		// 600 warm-ups fill a 512-instance table in every stripe, as the
		// benchmark of record's chain8_journal does.
		{"at the cap", 512, 600, 100, journal.FsyncOff, 35},
		{"fsync always", 0, 1, 3, journal.FsyncAlways, 27},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := durabilityOpts(t.TempDir())
			opts.Durability.Fsync = tc.fsync
			opts.HostOptions.MaxInstancesPerState = tc.cap
			p := core.New(opts)
			defer p.Close()
			if err := p.DurabilityError(); err != nil {
				t.Fatalf("journal: %v", err)
			}
			h, err := p.AddHost("commit-host")
			if err != nil {
				t.Fatalf("AddHost: %v", err)
			}
			for i := 1; i <= n; i++ {
				s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
				s.Handle("run", incr)
				p.RegisterService(h, s)
			}
			comp, err := p.Deploy(workload.Chain(n))
			if err != nil {
				t.Fatalf("Deploy: %v", err)
			}
			ctx := churnCtx(t)
			run := func(execs int) {
				for e := 0; e < execs; e++ {
					if out, err := comp.Execute(ctx, map[string]string{"x": "0"}); err != nil || out["x"] != strconv.Itoa(n) {
						t.Fatalf("execution %d: %v, %v", e, out, err)
					}
				}
			}
			run(tc.warm)
			before, passivated := p.Journal().Stats(), h.Passivated()
			run(tc.execs)
			after := p.Journal().Stats()
			execs := uint64(tc.execs)
			if got := after.Appends - before.Appends; got != tc.records*execs {
				t.Errorf("%d executions journaled %d records, want %d each", execs, got, tc.records)
			}
			if got := after.Writes - before.Writes; got != 19*execs {
				t.Errorf("%d executions took %d writes (%.2f each), want 19 each", execs, got, float64(got)/float64(execs))
			}
			wantSyncs := uint64(0)
			if tc.fsync == journal.FsyncAlways {
				wantSyncs = 19 * execs
			}
			if got := after.Syncs - before.Syncs; got != wantSyncs {
				t.Errorf("%d executions took %d fsyncs, want %d", execs, got, wantSyncs)
			}
			if got, want := h.Passivated()-passivated, (tc.records-27)*execs; got != want || h.Evicted() != 0 {
				t.Errorf("%d executions passivated %d instances (want %d) and lost %d", execs, got, want, h.Evicted())
			}
		})
	}
}

// TestDurabilityKillAtStagedBoundaries kills a Chain(3) platform at the
// two instants that decide which of s2's records may be staged, and
// reads the abandoned directory before recovering from it.
//
// During the provider call: the arrival that triggered the call must be
// on disk already. That is why an arrival is written through and not
// staged to ride its round — a provider call IS an effect, and can be
// slow; in a fleet the notifying peer lives in another process, has its
// round on its own disk and will never resend, so a hostd killed
// mid-call that had only staged the arrival would forget the execution.
//
// Between the invoke record's Stage and the round's Append (a guard
// function on s2's outgoing transition holds the firing there): the
// invoke record must NOT be on disk — it rides the round, and Crash must
// be no kinder than SIGKILL — and nothing is lost by that: the step is
// in doubt exactly as if the kill had landed during the call, and
// recovery re-executes it once.
func TestDurabilityKillAtStagedBoundaries(t *testing.T) {
	const n = 3
	for _, at := range []string{"during the provider call", "between invoke and round"} {
		for _, impl := range churnImpls() {
			t.Run(at+"/"+impl.name, func(t *testing.T) {
				dir := t.TempDir()
				chart := workload.Chain(n)
				chart.Root.Transitions[2].Condition = "hold(x)" // s2 -> s3
				reached := make(chan struct{})
				gate := make(chan struct{})
				defer close(gate) // release life A's held goroutine
				var once sync.Once
				hold := func() {
					once.Do(func() { close(reached) })
					<-gate
				}
				life := func(base int, holdAt string) (*core.Platform, *core.Composite, map[int]*service.Simulated) {
					opts := durabilityOpts(dir)
					opts.Funcs = map[string]expr.Func{"hold": func([]expr.Value) (expr.Value, error) {
						if holdAt == "between invoke and round" {
							hold()
						}
						return expr.Bool(true), nil
					}}
					p := impl.newPlatform(t, opts)
					if err := p.DurabilityError(); err != nil {
						t.Fatalf("journal: %v", err)
					}
					h, err := p.AddHost(impl.hostAddr(base))
					if err != nil {
						t.Fatalf("AddHost: %v", err)
					}
					sims := map[int]*service.Simulated{}
					for i := 1; i <= n; i++ {
						s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
						if i == 2 && holdAt == "during the provider call" {
							s.Handle("run", func(ctx context.Context, params map[string]string) (map[string]string, error) {
								hold()
								return incr(ctx, params)
							})
						} else {
							s.Handle("run", incr)
						}
						sims[i] = s
						p.RegisterService(h, service.NewIdempotent(s, 0))
					}
					comp, err := p.Deploy(chart)
					if err != nil {
						t.Fatalf("Deploy: %v", err)
					}
					return p, comp, sims
				}

				pA, compA, aSims := life(1, at)
				ctxA, cancelA := context.WithCancel(context.Background())
				defer cancelA()
				execDone := make(chan struct{})
				go func() {
					defer close(execDone)
					compA.ExecuteInstance(ctxA, "kill-1", map[string]string{"x": "0"})
				}()
				select {
				case <-reached:
				case <-churnCtx(t).Done():
					t.Fatal("s2 never reached the kill point")
				}
				pA.Crash()
				cancelA()
				<-execDone

				onDisk := map[string]int{} // "kind state" -> records
				if err := journal.Walk(dir, func(e journal.Entry) error {
					onDisk[e.Record.Kind+" "+e.Record.State]++
					return nil
				}); err != nil {
					t.Fatalf("Walk of the killed platform's journal: %v", err)
				}
				if onDisk["arrival s2"] != 1 || onDisk["invoke s1"] != 1 || onDisk["round s1"] != 1 {
					t.Errorf("killed %s: the journal must hold s1's whole step and s2's arrival; it holds %v", at, onDisk)
				}
				if onDisk["invoke s2"] != 0 || onDisk["round s2"] != 0 {
					t.Errorf("killed %s: s2's invoke record reached the disk without its round: %v", at, onDisk)
				}

				pB, compB, bSims := life(2, "")
				ctx := churnCtx(t)
				if _, err := pB.Recover(ctx); err != nil {
					t.Fatalf("Recover: %v", err)
				}
				out, err := compB.WaitRecovered(ctx, "kill-1")
				if err != nil || out["x"] != strconv.Itoa(n) {
					t.Fatalf("recovered execution: %v, %v; want x = %d", out, err, n)
				}
				// svc2 was in doubt at the kill — entered, its outcome not on
				// disk — and legally runs once more; nothing else runs twice.
				wantA := map[int]int64{1: 1, 2: 1, 3: 0}
				for i := 1; i <= n; i++ {
					wantB := int64(1)
					if i == 1 {
						wantB = 0 // its round was journaled
					}
					a, _, _ := aSims[i].Counters()
					b, _, _ := bSims[i].Counters()
					if a != wantA[i] || b != wantB {
						t.Errorf("svc%d ran %d time(s) before the kill and %d after, want %d and %d", i, a, b, wantA[i], wantB)
					}
				}
			})
		}
	}
}
