package core_test

// The zero-downtime redeploy contract suite: a composite redeployed
// while instances are mid-flight must finish those instances on the
// plan version they started on, run everything admitted after the swap
// on the new version, and never stall or duplicate an invocation —
// over BOTH transports. The drain deadline is the loud failure path:
// instances that outlive it are failed with ErrInstanceFault and
// counted, never silently dropped.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"selfserv/internal/core"
	"selfserv/internal/engine"
	"selfserv/internal/message"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/workload"
)

// chainV2 is the redeployed flavor of workload.Chain(n): identical
// services and flow, but the final transition adds 100 to x. The
// offset is the version marker — an instance that finishes with
// x == n ran entirely on v1, one with x == n+100 on v2; any cross-
// version misroute of the last hop shows up in the output.
func chainV2(n int) *statechart.Statechart {
	sc := workload.Chain(n)
	marked := false
	for i, tr := range sc.Root.Transitions {
		if tr.To == sc.Root.Final().ID {
			sc.Root.Transitions[i].Actions = []statechart.Assignment{{Var: "x", Expr: "x + 100"}}
			marked = true
		}
	}
	if !marked {
		panic("chainV2: Chain has no transition into its final state")
	}
	return sc
}

// gated wraps incr in a gate: until release is closed, callers park
// (reporting themselves on arrived) — the test's way of holding
// instances mid-chain while it redeploys underneath them.
func gated(arrived chan<- struct{}, release <-chan struct{}) service.Func {
	return func(ctx context.Context, params map[string]string) (map[string]string, error) {
		select {
		case <-release:
		default:
			arrived <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return incr(ctx, params)
	}
}

// TestRedeployUnderLoad deploys Chain(8), wedges a batch of instances
// mid-chain, deploys v2 of the same composite, and asserts the full
// swap contract: v1 instances complete with v1 semantics, the drained
// wrapper sheds new work loudly, post-swap executions run v2, nothing
// stalls, nothing is invoked twice, and v1 is retired once drained.
func TestRedeployUnderLoad(t *testing.T) {
	const n = 8
	const inflight = 4
	const postSwap = 3
	for _, impl := range churnImpls() {
		t.Run(impl.name, func(t *testing.T) {
			p := impl.newPlatform(t, core.Options{})
			h1, err := p.AddHost(impl.hostAddr(1))
			if err != nil {
				t.Fatalf("AddHost: %v", err)
			}
			h2, err := p.AddHost(impl.hostAddr(2))
			if err != nil {
				t.Fatalf("AddHost: %v", err)
			}
			hosts := []*engine.Host{h1, h2}

			arrived := make(chan struct{}, inflight*2)
			release := make(chan struct{})
			steps := map[int]*service.Simulated{}
			for i := 1; i <= n; i++ {
				s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
				if i == 5 {
					s.Handle("run", gated(arrived, release))
				} else {
					s.Handle("run", incr)
				}
				steps[i] = s
				p.RegisterService(hosts[i%2], s)
			}

			comp1, err := p.Deploy(workload.Chain(n))
			if err != nil {
				t.Fatalf("Deploy v1: %v", err)
			}
			if comp1.Version() != 1 {
				t.Fatalf("v1 version = %d, want 1", comp1.Version())
			}

			ctx := churnCtx(t)
			type result struct {
				out map[string]string
				err error
			}
			results := make(chan result, inflight)
			for i := 0; i < inflight; i++ {
				go func() {
					out, err := comp1.Execute(ctx, map[string]string{"x": "0"})
					results <- result{out, err}
				}()
			}
			// Every instance must be wedged mid-chain before the swap.
			for i := 0; i < inflight; i++ {
				select {
				case <-arrived:
				case <-ctx.Done():
					t.Fatal("instances never reached the mid-chain gate")
				}
			}
			if got := comp1.InFlight(); got != inflight {
				t.Fatalf("InFlight = %d, want %d", got, inflight)
			}

			// THE swap: v2 goes live while v1 instances are in flight.
			comp2, err := p.Deploy(chainV2(n))
			if err != nil {
				t.Fatalf("Deploy v2: %v", err)
			}
			if comp2.Version() != 2 {
				t.Fatalf("v2 version = %d, want 2", comp2.Version())
			}

			// The draining v1 wrapper sheds NEW admissions loudly...
			if _, err := comp1.Execute(ctx, map[string]string{"x": "0"}); !errors.Is(err, engine.ErrDraining) {
				t.Fatalf("admission on draining wrapper = %v, want ErrDraining", err)
			}
			// ...while its in-flight instances are still pinned and alive.
			if got := comp1.InFlight(); got != inflight {
				t.Fatalf("InFlight after swap = %d, want %d", got, inflight)
			}

			close(release)

			// Pinned completion: every v1 instance finishes with v1
			// semantics (x == n; the v2 final hop would have made it n+100).
			for i := 0; i < inflight; i++ {
				r := <-results
				if r.err != nil {
					t.Fatalf("v1 instance failed across the swap: %v", r.err)
				}
				if r.out["x"] != strconv.Itoa(n) {
					t.Fatalf("v1 instance x = %q, want %d (ran on the wrong plan version)", r.out["x"], n)
				}
			}

			// Post-swap executions run v2.
			for i := 0; i < postSwap; i++ {
				out, err := comp2.Execute(ctx, map[string]string{"x": "0"})
				if err != nil {
					t.Fatalf("v2 execution %d: %v", i, err)
				}
				if out["x"] != strconv.Itoa(n+100) {
					t.Fatalf("v2 execution %d: x = %q, want %d", i, out["x"], n+100)
				}
			}

			// No duplicate invocations anywhere across both versions.
			for i, s := range steps {
				if invoked, failures, _ := s.Counters(); invoked != inflight+postSwap || failures != 0 {
					t.Errorf("svc%d counters = invoked %d failures %d, want %d/0", i, invoked, failures, inflight+postSwap)
				}
			}

			// v1 drains to zero — nothing abandoned — and is retired.
			waitRetired(t, p, comp1.Name(), 1)
			if got := comp1.InFlight(); got != 0 {
				t.Errorf("InFlight after drain = %d, want 0", got)
			}
			if got := comp1.Abandoned(); got != 0 {
				t.Errorf("Abandoned = %d, want 0", got)
			}
			vt := p.Versions(comp1.Name())
			if vt.Current != 2 {
				t.Errorf("current version = %d, want 2", vt.Current)
			}

			// The happy swap needed no stale-frame repair.
			for _, h := range hosts {
				if got := h.DroppedStale(); got != 0 {
					t.Errorf("%s: DroppedStale = %d, want 0", h.Addr(), got)
				}
			}
		})
	}
}

// TestStaleFrameFaultsOnlyItsOwnVersion sends a straggler frame of a
// retired v1 for instance i1 while v2's i1 is held in its provider.
// Wrapper instance IDs restart with every version, so the two share an
// ID and nothing else: the straggler is dropped and counted, and with
// v1's wrapper gone its fault is only logged — v2's i1 completes.
func TestStaleFrameFaultsOnlyItsOwnVersion(t *testing.T) {
	for _, impl := range churnImpls() {
		t.Run(impl.name, func(t *testing.T) {
			noWrapper := make(chan struct{}, 1)
			opts := core.Options{}
			opts.HostOptions.Logf = func(format string, _ ...any) {
				if strings.Contains(format, "no wrapper address") {
					noWrapper <- struct{}{}
				}
			}
			p := impl.newPlatform(t, opts)
			h, err := p.AddHost(impl.hostAddr(1))
			if err != nil {
				t.Fatalf("AddHost: %v", err)
			}
			arrived := make(chan struct{}, 1)
			release := make(chan struct{})
			s := service.NewSimulated("svc1", service.SimulatedOptions{})
			s.Handle("run", gated(arrived, release))
			p.RegisterService(h, s)

			comp1, err := p.Deploy(workload.Chain(1))
			if err != nil {
				t.Fatalf("Deploy v1: %v", err)
			}
			comp2, err := p.Deploy(workload.Chain(1))
			if err != nil {
				t.Fatalf("Deploy v2: %v", err)
			}
			waitRetired(t, p, comp1.Name(), 1)

			ctx := churnCtx(t)
			type result struct {
				out map[string]string
				err error
			}
			done := make(chan result, 1)
			go func() {
				out, err := comp2.Execute(ctx, map[string]string{"x": "0"}) // v2's i1
				done <- result{out, err}
			}()
			select {
			case <-arrived:
			case <-ctx.Done():
				t.Fatal("v2's i1 never reached its provider")
			}
			err = p.Network().Send(ctx, h.Addr(), &message.Message{
				Type: message.TypeStart, Composite: comp1.Name(), Version: 1,
				Instance: "i1", From: message.WrapperID, To: "s1",
				Vars: map[string]string{"x": "0"},
			})
			if err != nil {
				t.Fatalf("send the straggler: %v", err)
			}
			select {
			case r := <-done:
				t.Fatalf("v2's i1 ended while held in its provider: %v, %v", r.out, r.err)
			case <-noWrapper:
			case <-ctx.Done():
				t.Fatal("the straggler's fault was never logged")
			}
			close(release)
			if r := <-done; r.err != nil || r.out["x"] != "1" {
				t.Fatalf("v2's i1 returned %v, %v; want x = 1", r.out, r.err)
			}
			if got := h.DroppedStale(); got != 1 {
				t.Errorf("DroppedStale = %d, want 1", got)
			}
		})
	}
}

// waitRetired polls until version is no longer live for the composite
// (the platform retires it in the background once its wrapper drains).
func waitRetired(t *testing.T, p *core.Platform, composite string, version uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		live := false
		for _, v := range p.Versions(composite).Live {
			if v == version {
				live = true
			}
		}
		if !live {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("version %d of %s still live after drain: %+v", version, composite, p.Versions(composite))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRedeployDrainDeadlineFailsStragglersLoudly wedges instances past
// the drain deadline: the platform must force-close the old wrapper,
// failing each straggler with ErrInstanceFault and counting it as
// abandoned — a loud failure, never a silent stall.
func TestRedeployDrainDeadlineFailsStragglersLoudly(t *testing.T) {
	const n = 2
	const inflight = 2
	core.SetDrainDeadline(t, 50*time.Millisecond)
	for _, impl := range churnImpls() {
		t.Run(impl.name, func(t *testing.T) {
			p := impl.newPlatform(t, core.Options{})
			h, err := p.AddHost(impl.hostAddr(1))
			if err != nil {
				t.Fatalf("AddHost: %v", err)
			}

			arrived := make(chan struct{}, inflight*2)
			release := make(chan struct{})
			defer close(release) // let wedged service goroutines exit
			for i := 1; i <= n; i++ {
				s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
				if i == 2 {
					s.Handle("run", gated(arrived, release))
				} else {
					s.Handle("run", incr)
				}
				p.RegisterService(h, s)
			}

			comp1, err := p.Deploy(workload.Chain(n))
			if err != nil {
				t.Fatalf("Deploy v1: %v", err)
			}
			ctx := churnCtx(t)
			errs := make(chan error, inflight)
			for i := 0; i < inflight; i++ {
				go func() {
					_, err := comp1.Execute(ctx, map[string]string{"x": "0"})
					errs <- err
				}()
			}
			for i := 0; i < inflight; i++ {
				select {
				case <-arrived:
				case <-ctx.Done():
					t.Fatal("instances never reached the gate")
				}
			}

			if _, err := p.Deploy(chainV2(n)); err != nil {
				t.Fatalf("Deploy v2: %v", err)
			}

			// The stragglers never finish; the deadline must fail them.
			for i := 0; i < inflight; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, engine.ErrInstanceFault) {
						t.Fatalf("straggler error = %v, want ErrInstanceFault", err)
					}
				case <-ctx.Done():
					t.Fatal("straggler still stalled after the drain deadline")
				}
			}
			if got := comp1.Abandoned(); got != uint64(inflight) {
				t.Errorf("Abandoned = %d, want %d", got, inflight)
			}
			waitRetired(t, p, comp1.Name(), 1)
		})
	}
}

// TestDrainingWrapperRefusesBeforeCharging: a request refused with
// ErrDraining spends none of its tenant's budget. The old and new
// versions' wrappers share the platform's limiter, so when the drain
// check ran after the bucket was charged, noisy's one token went to the
// refusal below and its first request on the new version was shed with
// ErrShed.
func TestDrainingWrapperRefusesBeforeCharging(t *testing.T) {
	const n = 2
	for _, impl := range churnImpls() {
		t.Run(impl.name, func(t *testing.T) {
			p := noisyPlatform(t, impl)
			comp1, err := p.Deploy(workload.Chain(n))
			if err != nil {
				t.Fatalf("Deploy v1: %v", err)
			}
			comp2, err := p.Deploy(chainV2(n))
			if err != nil {
				t.Fatalf("Deploy v2: %v", err)
			}
			ctx := churnCtx(t)
			noisy := map[string]string{"x": "0", engine.TenantVar: "noisy"}
			if _, err := comp1.Execute(ctx, noisy); !errors.Is(err, engine.ErrDraining) {
				t.Fatalf("noisy on the draining v1 = %v, want ErrDraining", err)
			}
			out, err := comp2.Execute(ctx, noisy)
			if err != nil {
				t.Fatalf("noisy on v2 after a refusal on v1: %v", err)
			}
			if out["x"] != strconv.Itoa(n+100) {
				t.Fatalf("v2 execution: x = %q, want %d", out["x"], n+100)
			}
		})
	}
}
