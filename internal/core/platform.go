// Package core assembles the SELF-SERV platform: a service manager
// (registry of providers + control plane) over a pool of hosts executing
// composite services peer-to-peer. It is the top-level API a downstream
// user programs against; the examples/ directory and the cmd/ tools are
// all thin layers over this package.
//
// Typical use:
//
//	p := core.New(core.Options{})
//	defer p.Close()
//	h, _ := p.AddHost("host-1")
//	p.RegisterService(h, myProvider)
//	comp, _ := p.Deploy(myStatechart)
//	out, _ := comp.Execute(ctx, inputs)
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"selfserv/internal/controlplane"
	"selfserv/internal/engine"
	"selfserv/internal/expr"
	"selfserv/internal/hostapi"
	"selfserv/internal/journal"
	"selfserv/internal/placement"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
)

// ErrClosed reports a Platform method called after Close. A closed
// platform stays closed: hosts added or composites deployed afterwards
// would leak listeners that nothing will ever shut down.
var ErrClosed = errors.New("core: platform is closed")

// Options configure a Platform.
type Options struct {
	// Network carries all control messages. Nil defaults to an in-memory
	// network (single-process deployments, tests, benchmarks); pass
	// transport.NewTCP() for a distributed deployment.
	Network transport.Network
	// Funcs are guard functions available to every condition evaluation
	// (e.g. the travel scenario's domestic/near).
	Funcs map[string]expr.Func
	// HostOptions tune coordinator hosts and every wrapper
	// (engine.NewWrapper); New sets their Funcs from Funcs and their
	// Journal from Durability, whatever the caller put there. Limits is
	// per-tenant admission control, applied by every wrapper at Execute
	// (requests tag their tenant with the engine.TenantVar input
	// variable; untagged ones share the anonymous bucket); hosts and the
	// centralized baseline admit everything.
	HostOptions engine.HostOptions
	// Placement is the replica-routing policy (shuffle-shard width,
	// dedicated cells) the platform's control plane ships with every
	// Deploy. The zero value routes by instance hash over all replicas.
	Placement placement.Policy
	// Durability configures the write-ahead journal behind durable
	// instances (docs/durability.md): every coordinator and wrapper on
	// this platform journals its commit points, cap-hit eviction becomes
	// passivation, and Recover can rebuild in-flight instances after a
	// crash. An empty Dir disables durability entirely (the default:
	// everything stays in RAM, as before). A journal that fails to open
	// surfaces from DurabilityError and Recover; the platform still runs,
	// journal-less, so a bad disk degrades durability, not availability.
	Durability journal.Options
}

// drainTimeout bounds how long a replaced deployment may keep finishing
// its in-flight instances after a redeploy before controlplane.Drain
// force-closes its wrapper, failing the stragglers loudly (counted in
// Wrapper.Abandoned, never silently dropped). Tests lower it.
var drainTimeout = 30 * time.Second

// Platform is a running SELF-SERV instance.
type Platform struct {
	net      transport.Network
	ownsNet  bool
	registry *service.Registry
	dir      *engine.Directory
	// hostOpts configure every host and every wrapper of the platform.
	hostOpts engine.HostOptions
	jnl      *journal.Journal // nil when durability is off or the open failed
	durErr   error            // why the journal is nil despite Durability.Dir being set
	// cp rolls Deploy out to the hosts, one hostapi.Node each.
	cp *controlplane.ControlPlane
	// drains lets tests and Close wait for retirement goroutines
	// (a WaitGroup synchronizes itself; it is not guarded by mu).
	drains sync.WaitGroup

	mu     sync.Mutex // lockorder:platform — guards everything below; never held across engine calls that take instance locks
	closed bool
	hosts  []*engine.Host
	// services maps each host to the provider names RegisterService
	// placed on it: what the host's node reports as its Info.Services.
	services   map[*engine.Host][]string
	composites map[string]*Composite
	// draining holds replaced composites whose old version is still
	// finishing in-flight instances; Close force-closes them so a
	// platform shutdown never waits out a drain deadline.
	draining map[*Composite]struct{}
}

// New creates a platform.
func New(opts Options) *Platform {
	net := opts.Network
	owns := false
	if net == nil {
		net = transport.NewInMem(transport.InMemOptions{})
		owns = true
	}
	var jnl *journal.Journal
	var durErr error
	if opts.Durability.Dir != "" {
		jnl, durErr = journal.Open(opts.Durability) // nil on failure: hosts run journal-less
	}
	hostOpts := opts.HostOptions
	hostOpts.Funcs = engine.Funcs(opts.Funcs)
	hostOpts.Journal = jnl
	return &Platform{
		net:        net,
		ownsNet:    owns,
		jnl:        jnl,
		durErr:     durErr,
		registry:   service.NewRegistry(),
		dir:        engine.NewDirectory(),
		hostOpts:   hostOpts,
		cp:         controlplane.New(opts.Placement),
		services:   map[*engine.Host][]string{},
		composites: map[string]*Composite{},
		draining:   map[*Composite]struct{}{},
	}
}

// Registry exposes the platform's pool of services.
func (p *Platform) Registry() *service.Registry { return p.registry }

// Network exposes the underlying transport (for stats in experiments).
func (p *Platform) Network() transport.Network { return p.net }

// Directory exposes the peer directory (read-mostly).
func (p *Platform) Directory() *engine.Directory { return p.dir }

// Journal exposes the durability journal (nil when durability is off or
// the journal failed to open — see DurabilityError).
func (p *Platform) Journal() *journal.Journal { return p.jnl }

// DurabilityError reports why the platform is running journal-less
// despite Options.Durability.Dir being set (nil otherwise).
func (p *Platform) DurabilityError() error { return p.durErr }

// Recover replays the durability journal into this platform's hosts and
// wrappers, rebuilding the instances a previous process left in flight.
// It must be called AFTER the fleet is reassembled — same hosts, same
// providers (wrapped in service.Idempotent where exactly-once matters),
// and the same composites re-deployed so plan versions line up (the
// control plane allocates above the newest version its hosts hold, none
// on a fresh platform, so re-deploying the same charts in the same order
// reproduces the versions the journal names).
// Rebuilt executions are listed by Composite.Recovered and awaited with
// Composite.WaitRecovered. Without a journal it answers
// hostapi.ErrNoJournal, wrapping the open error if the journal failed.
func (p *Platform) Recover(ctx context.Context) (engine.RecoveryStats, error) {
	if p.durErr != nil {
		return engine.RecoveryStats{}, fmt.Errorf("core: recover: %w: %w", hostapi.ErrNoJournal, p.durErr)
	}
	if p.jnl == nil {
		return engine.RecoveryStats{}, fmt.Errorf("core: recover: %w", hostapi.ErrNoJournal)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return engine.RecoveryStats{}, fmt.Errorf("recover: %w", ErrClosed)
	}
	hosts := append([]*engine.Host(nil), p.hosts...)
	wrappers := make([]*engine.Wrapper, 0, len(p.composites))
	for _, c := range p.composites {
		wrappers = append(wrappers, c.wrapper)
	}
	p.mu.Unlock()
	return engine.Recover(ctx, p.jnl, hosts, wrappers)
}

// AddHost starts a coordinator host listening on addr ("host-1" style
// names on the in-memory network, "ip:port" on TCP). Returns ErrClosed
// after Close: a host added to a closed platform would never be shut
// down.
func (p *Platform) AddHost(addr string) (*engine.Host, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("add host %q: %w", addr, ErrClosed)
	}
	p.mu.Unlock()
	h, err := engine.NewHost(p.net, addr, p.registry, p.dir, p.hostOpts)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		// Close raced us between the check and the listen: don't leak the
		// host — shut it down and report the platform closed.
		p.mu.Unlock()
		h.Close()
		return nil, fmt.Errorf("add host %q: %w", addr, ErrClosed)
	}
	p.hosts = append(p.hosts, h)
	p.mu.Unlock()
	p.cp.Join(hostapi.NewNode(h, p.dir, func() []string { return p.placed(h) }, nil))
	return h, nil
}

// placed lists the provider names RegisterService placed on h.
func (p *Platform) placed(h *engine.Host) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.services[h])
}

// RegisterService adds a provider (elementary service or community) to
// the pool and places it on host: composite states bound to the
// provider's name will have their coordinators installed there.
// Registering the same provider on additional hosts makes them replicas
// — the state's routing table is installed on every one at deploy time
// and the engine routes each (instance, tenant) key to a deterministic
// replica (docs/scaleout.md). On a closed platform this is a no-op.
func (p *Platform) RegisterService(host *engine.Host, prov service.Provider) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.registry.Register(prov)
	if name := prov.Name(); !slices.Contains(p.services[host], name) {
		p.services[host] = append(p.services[host], name)
	}
	p.mu.Unlock()
}

// Composite is a deployed composite service.
type Composite struct {
	platform *Platform
	wrapper  *engine.Wrapper
	rel      *controlplane.Release
}

// Deploy validates, compiles, and deploys a composite service through
// the platform's control plane — the rollout a fleet of daemons gets:
// routing tables are generated and compiled (every guard parsed exactly
// once, controlplane.Prepare), a wrapper is started over the compiled
// plan, and controlplane.Apply installs each state's table on every
// replica host of its component service. Parse errors surface here — a
// successfully deployed composite can never hit one at runtime.
//
// Every (re)deploy of a name gets a fresh, monotonically increasing
// plan version, and the swap is DRAIN-AWARE — the paper's dynamic
// evolution, done without data loss:
//
//  1. Version n+1's wrapper and tables are staged next to version n's
//     (separate coordinator keys, separate directory tables); v(n)
//     serves throughout.
//  2. The directory's current pointer flips to n+1: new ExecuteInstance
//     calls start on the new plan, in-flight instances stay pinned to
//     the version they started on and keep executing on v(n)'s
//     coordinators and routes.
//  3. v(n) ends in controlplane.Drain, in the background: its wrapper
//     rejects new work (engine.ErrDraining) and waits for the in-flight
//     gauge to reach zero, for at most 30 s. Stragglers past the
//     deadline are failed LOUDLY (their Execute returns an abandonment
//     error; Wrapper.Abandoned counts them), then v(n)'s coordinators
//     and routes are retired everywhere.
//
// A failed redeploy leaves the previous deployment registered, current,
// and executing — the new version's partial install is rolled back,
// never the live one.
func (p *Platform) Deploy(sc *statechart.Statechart) (*Composite, error) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("deploy %q: %w", sc.Name, ErrClosed)
	}
	rel, err := p.cp.Prepare(sc)
	if err != nil {
		return nil, err
	}
	// MintAddr turns the logical wrapper name into whatever this
	// transport listens on (the name itself in-memory, an ephemeral
	// loopback bind on TCP) — no type-switching on the implementation.
	// The version keeps replacement wrapper addresses distinct from the
	// previous wrapper's, which is still serving at this point.
	addr := p.net.MintAddr(fmt.Sprintf("wrapper/%s/%d", sc.Name, rel.Version))
	w, err := engine.NewWrapper(p.net, addr, p.dir, rel.Compiled, p.hostOpts)
	if err != nil {
		// Nothing is installed yet: the previous deployment (if any) is
		// untouched, its wrapper never closed, the current pointer never
		// moved.
		return nil, err
	}
	// Apply stages the new version's coordinators and routes next to the
	// live version's, then activates it: THE swap, after which new
	// instances start on it. A failed Apply has unwound its installs and
	// activated nothing; the wrapper's own route goes with it.
	if err := p.cp.Apply(rel, w.Addr()); err != nil {
		w.Close()
		p.dir.RetireVersion(sc.Name, rel.Version)
		return nil, err
	}
	comp := &Composite{platform: p, wrapper: w, rel: rel}
	p.mu.Lock()
	if p.closed {
		// Close raced the deploy: tear the new wrapper down instead of
		// leaking it into a closed platform.
		p.mu.Unlock()
		w.Close()
		return nil, fmt.Errorf("deploy %q: %w", sc.Name, ErrClosed)
	}
	prev := p.composites[sc.Name]
	p.composites[sc.Name] = comp
	if prev != nil {
		p.draining[prev] = struct{}{}
	}
	p.mu.Unlock()
	// The replaced wrapper starts rejecting admissions BEFORE Deploy
	// returns — no execution can slip onto the old version once the new
	// one is live — and drains in the background; Deploy returns with
	// the new version serving.
	if prev != nil {
		prev.wrapper.StartDrain()
		p.drains.Add(1)
		go p.drainAndRetire(prev)
	}
	return comp, nil
}

// drainAndRetire ends a replaced composite's version through
// controlplane.Drain (bounded by drainTimeout), then forgets it.
func (p *Platform) drainAndRetire(c *Composite) {
	defer p.drains.Done()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// The error is the stragglers' abandonment, already counted in
	// Wrapper.Abandoned and returned to each of their Execute callers; an
	// in-process node's Retire cannot fail.
	_ = p.cp.Drain(ctx, c.rel, c.wrapper)
	p.mu.Lock()
	delete(p.draining, c)
	p.mu.Unlock()
}

// Composite returns a previously deployed composite by name.
func (p *Platform) Composite(name string) (*Composite, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.composites[name]
	return c, ok
}

// Close shuts down wrappers, hosts, and (when owned) the network, and
// marks the platform closed: AddHost and Deploy return ErrClosed
// afterwards, RegisterService becomes a no-op. Idempotent — a second
// Close returns nil without touching anything.
func (p *Platform) Close() error {
	comps, hosts, ok := p.shut()
	if !ok {
		return nil
	}
	// Wrappers still draining from a redeploy are force-closed too: their
	// in-flight instances fail loudly NOW, which is also what unblocks
	// the background drains — a shutdown never waits out a drain
	// deadline.
	for _, c := range comps {
		c.wrapper.Close()
	}
	p.drains.Wait()
	for _, h := range hosts {
		h.Close()
	}
	// The journal closes after the hosts: no coordinator can append once
	// its endpoint is gone.
	if p.jnl != nil {
		p.jnl.Close()
	}
	if p.ownsNet {
		return p.net.Close()
	}
	return nil
}

// Crash simulates a process kill for the durability fault suite: every
// wrapper and host endpoint closes immediately — no drain, no
// abandonment records, no completion records — and the journal is
// abandoned (journal.Abandon: records staged behind a commit that never
// came are dropped, nothing is synced), leaving the on-disk state exactly
// as a killed process would. The platform is closed afterwards (Close
// becomes a no-op). Unlike Close, Crash does not wait for background
// drain goroutines: a crashed process waits for nothing.
func (p *Platform) Crash() {
	comps, hosts, ok := p.shut()
	if !ok {
		return
	}
	for _, c := range comps {
		c.wrapper.Kill()
	}
	for _, h := range hosts {
		h.Close()
	}
	if p.jnl != nil {
		p.jnl.Abandon()
	}
	if p.ownsNet {
		p.net.Close()
	}
}

// shut marks the platform closed and hands back what Close or Crash
// stops: every composite, draining ones included, and the hosts. ok is
// false when the platform was closed already.
func (p *Platform) shut() (comps []*Composite, hosts []*engine.Host, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, nil, false
	}
	p.closed = true
	for _, c := range p.composites {
		comps = append(comps, c)
	}
	for c := range p.draining {
		comps = append(comps, c)
	}
	hosts = p.hosts
	p.composites = map[string]*Composite{}
	p.hosts = nil
	return comps, hosts, true
}

// Execute runs one instance of the composite.
func (c *Composite) Execute(ctx context.Context, inputs map[string]string) (map[string]string, error) {
	return c.wrapper.Execute(ctx, inputs)
}

// RaiseEvent delivers an ECA event to a running instance (see
// engine.Wrapper.RaiseEvent). Use ExecuteInstance-style flows: start the
// execution with a known instance ID, then raise events against it.
func (c *Composite) RaiseEvent(ctx context.Context, instanceID, event string, payload map[string]string) error {
	return c.wrapper.RaiseEvent(ctx, instanceID, event, payload)
}

// ExecuteInstance runs one instance under a caller-chosen ID, so events
// can be raised against it while it runs.
func (c *Composite) ExecuteInstance(ctx context.Context, id string, inputs map[string]string) (map[string]string, error) {
	return c.wrapper.ExecuteInstance(ctx, id, inputs)
}

// Recovered lists the execution IDs Recover rebuilt into this
// deployment's wrapper.
func (c *Composite) Recovered() []string { return c.wrapper.Recovered() }

// WaitRecovered blocks until a recovery-rebuilt execution terminates
// and returns its outputs — the crashed process's Execute, completed by
// this one.
func (c *Composite) WaitRecovered(ctx context.Context, id string) (map[string]string, error) {
	return c.wrapper.WaitRecovered(ctx, id)
}

// Name returns the composite service name.
func (c *Composite) Name() string { return c.rel.Composite }

// Version returns the compiled plan version this deployment serves
// (1 for a composite's first deploy, +1 per redeploy).
func (c *Composite) Version() uint64 { return c.rel.Version }

// InFlight reports how many executions are currently inside this
// deployment's wrapper — the gauge a drain-aware swap watches.
func (c *Composite) InFlight() int { return c.wrapper.InFlight() }

// Abandoned reports how many in-flight instances were failed when this
// deployment's wrapper was force-closed (drain deadline or shutdown).
func (c *Composite) Abandoned() uint64 { return c.wrapper.Abandoned() }

// VersionTable describes the live plan versions of one composite: which
// version new instances start on and which older ones are still
// draining. The platform's swap observability surface.
type VersionTable struct {
	Current uint64   `json:"current"`
	Live    []uint64 `json:"live"`
}

// Versions reports composite's version table from the directory.
func (p *Platform) Versions(composite string) VersionTable {
	return VersionTable{
		Current: p.dir.Current(composite),
		Live:    p.dir.Versions(composite),
	}
}

// Plan exposes the declarative routing plan (for inspection and tooling).
func (c *Composite) Plan() *routing.Plan { return c.rel.Plan }

// CompiledPlan exposes the compiled execution plan shared by the wrapper
// and (when built) the centralized baseline.
func (c *Composite) CompiledPlan() *routing.CompiledPlan { return c.rel.Compiled }

// Wrapper exposes the underlying wrapper (e.g. for its address).
func (c *Composite) Wrapper() *engine.Wrapper { return c.wrapper }

// NewCentralBaseline builds the hub orchestrator for the same compiled
// plan — the comparator of experiments E3/E7. Sharing the compilation
// keeps the comparison apples-to-apples: neither side parses at runtime.
func (c *Composite) NewCentralBaseline(addr string) (*engine.Central, error) {
	return engine.NewCentral(c.platform.net, addr, c.platform.dir, c.rel.Compiled, c.platform.hostOpts.Funcs)
}
