package core_test

// The availability-under-churn contract suite: deterministic end-to-end
// scenarios at the platform level, each run over BOTH the in-memory and
// the TCP transport. These pin the acceptance criteria of the churn
// layer: a provider killed mid-composite never stalls or duplicates an
// invocation (failover + idempotent retry), a wedged member's breaker
// stops the community from burning attempts on it, and a rate-limited
// tenant is shed while other tenants complete.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strconv"
	"testing"
	"time"

	"selfserv/internal/circuit"
	"selfserv/internal/community"
	"selfserv/internal/core"
	"selfserv/internal/engine"
	"selfserv/internal/limits"
	"selfserv/internal/service"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// churnImpl runs one scenario over a specific transport.
type churnImpl struct {
	name string
	// newPlatform builds a platform; the returned cleanup closes any
	// caller-owned network.
	newPlatform func(t *testing.T, opts core.Options) *core.Platform
	// hostAddr mints a listenable host address.
	hostAddr func(i int) string
}

func churnImpls() []churnImpl {
	return []churnImpl{
		{
			name: "inmem",
			newPlatform: func(t *testing.T, opts core.Options) *core.Platform {
				p := core.New(opts) // nil Network: platform owns an InMem
				t.Cleanup(func() { p.Close() })
				return p
			},
			hostAddr: func(i int) string { return fmt.Sprintf("churn-host-%d", i) },
		},
		{
			name: "tcp",
			newPlatform: func(t *testing.T, opts core.Options) *core.Platform {
				net := transport.NewTCP()
				opts.Network = net
				p := core.New(opts)
				t.Cleanup(func() {
					p.Close()
					net.Close()
				})
				return p
			},
			hostAddr: func(i int) string { return "127.0.0.1:0" },
		},
	}
}

func churnCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// incr is the chain workload's step: x -> x+1.
func incr(_ context.Context, params map[string]string) (map[string]string, error) {
	x, err := strconv.Atoi(params["x"])
	if err != nil {
		return nil, fmt.Errorf("bad x %q: %w", params["x"], err)
	}
	return map[string]string{"x": strconv.Itoa(x + 1)}, nil
}

// TestChurnProviderKilledMidComposite: a Chain(8) whose fifth state is
// served by a two-member community. While the composite runs, state
// four's provider kills the community's preferred member; the firing of
// state five fails against the dead member, the community fails over to
// the backup, and the execution completes — no stall, no duplicated
// invocation anywhere in the chain.
func TestChurnProviderKilledMidComposite(t *testing.T) {
	const n = 8
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

			primary := service.NewSimulated("Primary5", service.SimulatedOptions{})
			primary.Handle("run", incr)
			backup := service.NewSimulated("Backup5", service.SimulatedOptions{})
			backup.Handle("run", incr)

			steps := map[int]*service.Simulated{}
			for i := 1; i <= n; i++ {
				host := hosts[i%2]
				switch i {
				case 4:
					// The churn event itself: firing state four kills the
					// community member state five would prefer.
					killer := service.NewSimulated("svc4", service.SimulatedOptions{})
					killer.Handle("run", func(ctx context.Context, params map[string]string) (map[string]string, error) {
						primary.SetDown(true)
						return incr(ctx, params)
					})
					steps[i] = killer
					p.RegisterService(host, killer)
				case 5:
					comm := community.New("svc5", community.Options{
						Policy:   community.NewCheapest(),
						Failover: 1,
					})
					for _, m := range []*community.Member{
						{Provider: primary, Cost: 1}, // preferred until it dies
						{Provider: backup, Cost: 2},
					} {
						if err := comm.Join(m); err != nil {
							t.Fatalf("Join: %v", err)
						}
					}
					p.RegisterService(host, comm)
				default:
					s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
					s.Handle("run", incr)
					steps[i] = s
					p.RegisterService(host, s)
				}
			}

			comp, err := p.Deploy(workload.Chain(n))
			if err != nil {
				t.Fatalf("Deploy: %v", err)
			}
			out, err := comp.Execute(churnCtx(t), map[string]string{"x": "0"})
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if out["x"] != strconv.Itoa(n) {
				t.Fatalf("x = %q, want %d", out["x"], n)
			}

			// No duplicate invocations: every chain step executed exactly
			// once; the killed member saw exactly the one failed attempt.
			for i, s := range steps {
				if invoked, _, _ := s.Counters(); invoked != 1 {
					t.Errorf("svc%d invoked %d times, want 1", i, invoked)
				}
			}
			if invoked, failures, _ := primary.Counters(); invoked != 1 || failures != 1 {
				t.Errorf("primary counters = invoked %d failures %d, want 1/1", invoked, failures)
			}
			if invoked, failures, _ := backup.Counters(); invoked != 1 || failures != 0 {
				t.Errorf("backup counters = invoked %d failures %d, want 1/0", invoked, failures)
			}

			comm, _ := p.Registry().Lookup("svc5")
			av := comm.(*community.Community).Availability()
			if av.Failovers != 1 {
				t.Errorf("Failovers = %d, want 1", av.Failovers)
			}
		})
	}
}

// TestChurnBreakerStopsBurningAttemptsOnWedgedMember: a community member
// that keeps failing trips its per-member breaker; from then on the
// community goes straight to the healthy member without invoking the
// wedged one, and every composite execution still succeeds.
func TestChurnBreakerStopsBurningAttemptsOnWedgedMember(t *testing.T) {
	for _, impl := range churnImpls() {
		t.Run(impl.name, func(t *testing.T) {
			p := impl.newPlatform(t, core.Options{})
			h, err := p.AddHost(impl.hostAddr(1))
			if err != nil {
				t.Fatalf("AddHost: %v", err)
			}

			wedged := service.NewSimulated("Wedged", service.SimulatedOptions{})
			wedged.Handle("run", incr)
			wedged.SetDown(true) // wedged from the start, never recovers
			live := service.NewSimulated("Live", service.SimulatedOptions{})
			live.Handle("run", incr)

			frozen := time.Unix(11000, 0)
			comm := community.New("svc1", community.Options{
				Policy:   community.NewCheapest(),
				Failover: 1,
				Breaker: &circuit.Options{
					Window: 2, MinSamples: 2, Threshold: 1.0,
					OpenFor: time.Hour, Now: func() time.Time { return frozen },
				},
			})
			for _, m := range []*community.Member{
				{Provider: wedged, Cost: 1}, // always preferred while allowed
				{Provider: live, Cost: 2},
			} {
				if err := comm.Join(m); err != nil {
					t.Fatalf("Join: %v", err)
				}
			}
			p.RegisterService(h, comm)

			s2 := service.NewSimulated("svc2", service.SimulatedOptions{})
			s2.Handle("run", incr)
			p.RegisterService(h, s2)

			comp, err := p.Deploy(workload.Chain(2))
			if err != nil {
				t.Fatalf("Deploy: %v", err)
			}
			ctx := churnCtx(t)
			for i := 0; i < 4; i++ {
				out, err := comp.Execute(ctx, map[string]string{"x": "0"})
				if err != nil {
					t.Fatalf("execution %d: %v", i, err)
				}
				if out["x"] != "2" {
					t.Fatalf("execution %d: x = %q, want 2", i, out["x"])
				}
			}

			// The first two executions each burned one attempt on the wedged
			// member (filling its all-failure window); the breaker then
			// opened, and the last two went straight to the live member.
			if invoked, _, _ := wedged.Counters(); invoked != 2 {
				t.Errorf("wedged invoked %d times, want 2", invoked)
			}
			if invoked, failures, _ := live.Counters(); invoked != 4 || failures != 0 {
				t.Errorf("live counters = invoked %d failures %d, want 4/0", invoked, failures)
			}
			if got := comm.BreakerState("Wedged"); got != circuit.Open {
				t.Errorf("breaker state = %v, want open", got)
			}
			av := comm.Availability()
			if av.BreakerOpens != 1 {
				t.Errorf("BreakerOpens = %d, want 1", av.BreakerOpens)
			}
			if av.BreakerRefusals != 2 {
				t.Errorf("BreakerRefusals = %d, want 2", av.BreakerRefusals)
			}
		})
	}
}

// noisyPlatform builds a platform whose limiter gives tenant "noisy"
// exactly one admission (a frozen clock never refills its bucket) and
// leaves everyone else unlimited, with one host serving Chain(2)'s svc1
// and svc2.
func noisyPlatform(t *testing.T, impl churnImpl) *core.Platform {
	t.Helper()
	frozen := time.Unix(12000, 0)
	p := impl.newPlatform(t, core.Options{HostOptions: engine.HostOptions{
		Limits: limits.New(limits.Options{
			PerTenant: map[string]limits.Limit{"noisy": {Rate: 0.001, Burst: 1}},
			Now:       func() time.Time { return frozen },
		}),
	}})
	h, err := p.AddHost(impl.hostAddr(1))
	if err != nil {
		t.Fatalf("AddHost: %v", err)
	}
	for i := 1; i <= 2; i++ {
		s := service.NewSimulated(fmt.Sprintf("svc%d", i), service.SimulatedOptions{})
		s.Handle("run", incr)
		p.RegisterService(h, s)
	}
	return p
}

// TestChurnRateLimitedTenantShedWhileOthersComplete: with platform-level
// limits, the noisy tenant's second execution is shed at wrapper
// admission while a quiet tenant and anonymous traffic complete, and the
// shed shows up in the transport's stats.
func TestChurnRateLimitedTenantShedWhileOthersComplete(t *testing.T) {
	for _, impl := range churnImpls() {
		t.Run(impl.name, func(t *testing.T) {
			p := noisyPlatform(t, impl)
			comp, err := p.Deploy(workload.Chain(2))
			if err != nil {
				t.Fatalf("Deploy: %v", err)
			}

			ctx := churnCtx(t)
			if _, err := comp.Execute(ctx, map[string]string{"x": "0", engine.TenantVar: "noisy"}); err != nil {
				t.Fatalf("first noisy execution: %v", err)
			}
			if _, err := comp.Execute(ctx, map[string]string{"x": "0", engine.TenantVar: "noisy"}); !errors.Is(err, limits.ErrShed) {
				t.Fatalf("second noisy execution = %v, want ErrShed", err)
			}
			if _, err := comp.Execute(ctx, map[string]string{"x": "0", engine.TenantVar: "quiet"}); err != nil {
				t.Fatalf("quiet execution: %v", err)
			}
			if _, err := comp.Execute(ctx, map[string]string{"x": "0"}); err != nil {
				t.Fatalf("anonymous execution: %v", err)
			}

			if got := p.Network().Stats().Total().ShedRequests; got != 1 {
				t.Errorf("total ShedRequests = %d, want 1", got)
			}
		})
	}
}

// TestHostsNeverReAdmit: admission is decided once, by the wrapper at
// Execute; the hosts that serve the centralized baseline's TypeInvokes
// admit everything. When hosts re-checked the limiter in serveInvoke,
// the baseline's execution below failed with "instance fault: state s1:
// limits: rate limit exceeded": the tenant was charged once per
// provider invoke, after the upstream providers had already run.
func TestHostsNeverReAdmit(t *testing.T) {
	for _, impl := range churnImpls() {
		t.Run(impl.name, func(t *testing.T) {
			p := noisyPlatform(t, impl)
			comp, err := p.Deploy(workload.Chain(2))
			if err != nil {
				t.Fatalf("Deploy: %v", err)
			}
			ctx := churnCtx(t)
			in := map[string]string{"x": "0", engine.TenantVar: "noisy"}
			first, err := comp.Execute(ctx, in)
			if err != nil {
				t.Fatalf("first noisy execution: %v", err)
			}
			if _, err := comp.Execute(ctx, in); !errors.Is(err, limits.ErrShed) {
				t.Fatalf("second noisy execution = %v, want ErrShed", err)
			}

			central, err := comp.NewCentralBaseline(impl.hostAddr(2))
			if err != nil {
				t.Fatalf("NewCentralBaseline: %v", err)
			}
			defer central.Close()
			out, err := central.Execute(ctx, in)
			if err != nil {
				t.Fatalf("central execution for noisy: %v", err)
			}
			if !maps.Equal(out, first) {
				t.Fatalf("central outputs = %v, want the p2p execution's %v", out, first)
			}
		})
	}
}
