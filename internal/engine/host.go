package engine

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"selfserv/internal/expr"
	"selfserv/internal/journal"
	"selfserv/internal/limits"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/transport"
)

// HostOptions configure a Host.
type HostOptions struct {
	// Funcs are the guard functions available to condition evaluation.
	Funcs Funcs
	// MaxInstancesPerState bounds per-coordinator instance bookkeeping;
	// the oldest instances are evicted beyond it. Zero means 16384.
	MaxInstancesPerState int
	// Logf, when set, receives coordinator trace lines (tests and the
	// hostd binary use it; benchmarks leave it nil).
	Logf func(format string, args ...any)
	// Limits, when set, is per-tenant admission control (input variable
	// engine.TenantVar) for wrappers: NewWrapper reads it, a Host never
	// does. Nil admits everything.
	Limits *limits.Limiter
	// Journal, when set, makes every coordinator on this host durable:
	// arrivals, invocations, and firing rounds are journaled at their
	// commit points, cap-hit eviction becomes passivation (state goes to
	// the journal, not the floor), and outbound notifications carry
	// per-instance sequence numbers so crash-recovery redelivery can be
	// deduplicated. Nil keeps the pre-durability in-RAM behavior.
	Journal *journal.Journal
}

// Host is one node of the peer-to-peer execution fabric. It runs the
// coordinators of every state deployed to it (states whose component
// service lives on this node) and answers remote TypeInvoke requests
// (used by the centralized baseline).
type Host struct {
	station
	registry *service.Registry
	dir      *Directory
	opts     HostOptions
	funcEnv  expr.Env // function layer shared by every evaluation
	// workers run every coordinator firing on this host (firing.go).
	workers *fireWorkers

	mu     sync.RWMutex
	coords map[coordKey]*coordinator

	// Observability: frames for a version with no coordinator here, and
	// the instance lifecycle — instances whose live state was LOST to a
	// cap-hit eviction (no journal, or the passivation write failed),
	// finished instances retired from once tables, instances passivated to
	// the journal, and passivated instances rehydrated by a later frame.
	droppedStale atomic.Uint64
	evicted      atomic.Uint64
	refused      atomic.Uint64
	retired      atomic.Uint64
	passivated   atomic.Uint64
	rehydrated   atomic.Uint64
}

// DroppedStale counts start and notify frames dropped because no
// coordinator of their plan version is installed here; each one faulted
// its instance (Host.dropStale). It stays zero outside a rollout.
func (h *Host) DroppedStale() uint64 { return h.droppedStale.Load() }

// Evicted counts live instances dropped at the cap with their state
// LOST, and only those: a journal passivates instead, and an instance of
// a once table that fired, or can no longer fire, was Retired first. Every
// increment is logged loudly — a lost instance stalls or faults its
// composite.
func (h *Host) Evicted() uint64 { return h.evicted.Load() }

// Refused counts frames refused because they were for an instance this
// host had lost at the cap (Evicted): a late notification does not bring
// back a fresh, partial instance that could never finish.
func (h *Host) Refused() uint64 { return h.refused.Load() }

// Retired counts instances that left a once table when the plan proved
// them finished: their round ended, or their clause was left untaken.
func (h *Host) Retired() uint64 { return h.retired.Load() }

// Passivated counts instances serialized to the journal at a cap hit.
func (h *Host) Passivated() uint64 { return h.passivated.Load() }

// Rehydrated counts passivated instances restored into RAM by a later
// notification.
func (h *Host) Rehydrated() uint64 { return h.rehydrated.Load() }

// NewHost creates a host listening on addr over net, executing services
// out of registry and resolving peers through dir.
func NewHost(net transport.Network, addr string, registry *service.Registry, dir *Directory, opts HostOptions) (*Host, error) {
	if opts.MaxInstancesPerState <= 0 {
		opts.MaxInstancesPerState = 16384
	}
	h := &Host{
		registry: registry,
		dir:      dir,
		opts:     opts,
		funcEnv:  opts.Funcs.Env(),
		workers:  newFireWorkers(),
		coords:   map[coordKey]*coordinator{},
	}
	if err := h.listen(net, addr, "host", h.handle); err != nil {
		return nil, err
	}
	return h, nil
}

// Close unregisters the host from the network and retires its parked
// firing workers.
func (h *Host) Close() error {
	err := h.ep.Close()
	h.workers.close()
	return err
}

// InstallCompiled deploys one state's routing table onto this host — the
// moment the paper describes as the deployer "uploading these tables into
// the hosts of the corresponding component services": it registers the
// state's coordinator and records the host's address in the directory.
// It is the one way in and takes the compiled table (the control plane
// compiles the plan it rolls out, hostapi the document a remote push
// carries), so an ill-formed guard has failed before this call, at deploy
// time, never during an execution. The compiled artifact is shared,
// immutable state: one compilation serves every host and every instance.
func (h *Host) InstallCompiled(composite string, table *routing.CompiledTable) error {
	if table == nil {
		return fmt.Errorf("engine: nil table")
	}
	if _, err := h.registry.Lookup(table.Service); err != nil {
		return fmt.Errorf("engine: install %s/%s: %w", composite, table.State, err)
	}
	c := &coordinator{
		origin: origin{dir: h.dir, composite: composite, version: table.Version, from: table.State, funcEnv: h.funcEnv},
		host:   h,
		table:  table,
	}
	h.mu.Lock()
	h.coords[coordKey{composite, table.State, table.Version}] = c
	h.mu.Unlock()
	// Join the state's replica set rather than replacing it: N hosts can
	// install the same table and each call lands its address in the
	// shared group (order-independent, so concurrent installs agree).
	// The registration is version-scoped: installing v(n+1) never touches
	// v(n)'s replica set, so draining instances keep their routes.
	h.dir.AddReplicaV(composite, table.Version, table.State, h.Addr())
	return nil
}

// Uninstall removes one version of a state's coordinator (service
// retirement or the rollback of a failed deploy) and withdraws this
// host from that version's replica set so no peer routes new
// notifications here. Version 0 is an unversioned install.
func (h *Host) Uninstall(composite, stateID string, version uint64) {
	h.mu.Lock()
	delete(h.coords, coordKey{composite, stateID, version})
	h.mu.Unlock()
	h.dir.RemoveReplicaV(composite, version, stateID, h.Addr())
}

// RetireVersion removes every coordinator of composite's given plan
// version from this host — the final step of a drain, after the last
// pinned instance completed (or was abandoned at the drain deadline).
func (h *Host) RetireVersion(composite string, version uint64) {
	h.mu.Lock()
	var removed []string
	for k := range h.coords {
		if k.composite == composite && k.version == version {
			delete(h.coords, k)
			removed = append(removed, k.state)
		}
	}
	h.mu.Unlock()
	for _, s := range removed {
		h.dir.RemoveReplicaV(composite, version, s, h.Addr())
	}
}

// States returns, per composite, the sorted IDs of the states that have
// a coordinator on this host in some plan version. A composite with
// nothing installed is absent.
func (h *Host) States() map[string][]string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := map[string][]string{}
	for k := range h.coords {
		if !slices.Contains(out[k.composite], k.state) {
			out[k.composite] = append(out[k.composite], k.state)
		}
	}
	for _, states := range out {
		slices.Sort(states)
	}
	return out
}

// coordinatorFor returns the coordinator installed for one (composite,
// state, version), or nil; version 0 names the composite's current
// version (the Directory rule), so an unversioned sender is served by
// whatever plan is live. The transport handler and recovery's replay
// both route through it.
func (h *Host) coordinatorFor(composite, stateID string, version uint64) *coordinator {
	if version == 0 {
		version = h.dir.Current(composite)
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.coords[coordKey{composite, stateID, version}]
}

// coordKey names one coordinator on a host; version 0 is an unversioned
// install.
type coordKey struct {
	composite, state string
	version          uint64
}

// handle is the host's transport handler.
func (h *Host) handle(ctx context.Context, m *message.Message) {
	switch m.Type {
	case message.TypeStart, message.TypeNotify:
		c := h.coordinatorFor(m.Composite, m.To, m.Version)
		if c == nil {
			h.dropStale(ctx, m)
			return
		}
		c.onNotification(ctx, m)
	case message.TypeInvoke:
		// Own goroutine: serveInvoke executes the service inline, and the
		// messages of one frame are delivered sequentially — a coalesced
		// invoke round (Central batches per host) must not serialize
		// co-hosted executions. Invokes are order-independent (replies
		// correlate by token), so frame FIFO is not needed here.
		go h.serveInvoke(ctx, m)
	default:
		h.logf("host %s: unexpected message %s", h.Addr(), m)
	}
}

// dropStale handles a start/notify frame for a plan version with no
// coordinator on this host. A host acts only on the tables uploaded to
// it (docs/controlplane.md states the invariant), so the frame has no
// other home: it is counted, logged, and its instance faulted to that
// version's wrapper so the client fails instead of hanging.
func (h *Host) dropStale(ctx context.Context, m *message.Message) {
	h.droppedStale.Add(1)
	h.logf("host %s: no coordinator for %s/%s v%d; dropping %s", h.Addr(), m.Composite, m.To, m.Version, m)
	h.sendFault(ctx, m.Composite, m.Version, m.Instance, m.To,
		fmt.Errorf("engine: frame for retired plan version %d of %s/%s dropped", m.Version, m.Composite, m.To))
}

// sendFault reports that instance failed at peer from to the wrapper of
// exactly its plan version. Instance IDs restart with every version, so
// no other version's wrapper may receive it; with that wrapper gone the
// fault is only logged.
func (h *Host) sendFault(ctx context.Context, composite string, version uint64, instance, from string, cause error) {
	addr, found := h.dir.LookupV(composite, version, message.WrapperID)
	if !found {
		h.logf("host %s: fault of %s/%s v%d with no wrapper address: %v", h.Addr(), composite, from, version, cause)
		return
	}
	m := &message.Message{
		Type:      message.TypeFault,
		Composite: composite,
		Version:   version,
		Instance:  instance,
		From:      from,
		To:        message.WrapperID,
		Error:     cause.Error(),
	}
	if err := h.sender.Send(ctx, addr, m); err != nil {
		h.logf("host %s: fault delivery for %s/%s failed: %v (original: %v)", h.Addr(), composite, from, err, cause)
	}
}

// serveInvoke executes a remote invocation request ("service/operation"
// in To) and replies with a TypeResult to m.ReplyTo. It admits every
// request: admission is the wrapper's, at Execute.
func (h *Host) serveInvoke(ctx context.Context, m *message.Message) {
	reply := &message.Message{
		Type:      message.TypeResult,
		Composite: m.Composite,
		Instance:  m.Instance,
		From:      m.To,
	}
	svc, op, ok := strings.Cut(m.To, "/")
	if !ok {
		reply.Error = fmt.Sprintf("engine: malformed invoke target %q", m.To)
	} else {
		// Reserved '$'-prefixed variables are engine metadata, not service
		// parameters: the tenant moves to Request.Tenant, and the invoke
		// token (unique per firing) becomes the idempotency key so a
		// retried TypeInvoke can never execute the provider twice.
		params := m.Vars
		if _, tagged := params[TenantVar]; tagged {
			params = make(map[string]string, len(m.Vars))
			for k, v := range m.Vars {
				if !strings.HasPrefix(k, "$") {
					params[k] = v
				}
			}
		}
		resp, err := h.registry.Invoke(ctx, service.Request{
			Service:        svc,
			Operation:      op,
			Params:         params,
			Tenant:         m.Vars[TenantVar],
			IdempotencyKey: service.Key{Composite: m.Composite, Instance: m.Instance, State: m.To},
		})
		if err != nil {
			reply.Error = err.Error()
		} else {
			reply.Vars = resp.Outputs
		}
	}
	if m.ReplyTo == "" {
		h.logf("host %s: invoke without replyTo", h.Addr())
		return
	}
	if err := h.sender.Send(ctx, m.ReplyTo, reply); err != nil {
		h.logf("host %s: reply to %s failed: %v", h.Addr(), m.ReplyTo, err)
	}
}

func (h *Host) logf(format string, args ...any) {
	if h.opts.Logf != nil {
		h.opts.Logf(format, args...)
	}
}

// coordinator is the peer software component attached to one state of a
// composite service (§2). It interprets its COMPILED routing table:
// collect notifications until a precondition clause is satisfied, invoke
// the local component service, then run postprocessing. All guards and
// actions were parsed at install time; per notification the coordinator
// only bumps an interned counter, compares bitmasks, and walks prebuilt
// expression trees.
//
// Instance bookkeeping is LOCK-STRIPED (see instances.go): the instance
// table is sharded by instance-ID hash and each instance carries its
// own mutex, so concurrent executions of the same composite never
// serialize behind a coordinator-wide lock — the critical section of a
// notification (counter bump, bag merge, guard eval) is per instance.
type coordinator struct {
	origin // from is table.State
	host   *Host
	table  *routing.CompiledTable

	instances shardedTable[*coordInstance]
}

// coordInstance is one execution's state at one coordinator: the kernel
// marking (kernel.go) plus the two flags that only mean something to a
// live in-RAM object.
type coordInstance struct {
	mu      sync.Mutex // lockorder:instance — guards everything below; see instances.go for lock order
	mk      marking
	running bool // an invocation is in flight; new clause checks wait
	// hydrated is false until the instance's creator has first locked it
	// (rehydrateLocked) and, with a journal, checked the passive index for
	// an earlier life to restore; true for instances recovery rebuilds.
	// onEvict never picks an instance that is not: its creator is about to
	// apply the arrival that made it.
	hydrated bool
}

func (c *coordinator) newInstance(hydrated bool) *coordInstance {
	inst := &coordInstance{hydrated: hydrated}
	inst.mk.init(c.table.NumSources(), c.table.MaskWords())
	return inst
}

// onNotification processes a start/notify message for one instance.
func (c *coordinator) onNotification(ctx context.Context, m *message.Message) {
	inst := c.instance(ctx, m.Instance)
	if inst == nil {
		return
	}
	inst.mu.Lock()
	if inst = c.currentLocked(ctx, m.Instance, inst); inst == nil {
		return
	}
	defer inst.mu.Unlock()
	idx, interned := c.table.SourceIndex(m.From)
	if interned && inst.mk.duplicate(idx, uint64(m.Seq)) {
		c.host.logf("coord %s/%s: dropped duplicate frame %s seq %d from %s",
			c.composite, c.table.State, m.Instance, m.Seq, m.From)
		return
	}
	// Write-ahead commit point: the arrival becomes durable before its
	// effects do.
	if j := c.host.opts.Journal; j != nil {
		rec := newRecord(journal.KindArrival, c.composite, c.table.State, m.Instance, c.version)
		rec.Src = m.From
		rec.Seq = uint64(m.Seq)
		rec.Vars = m.Vars
		commit(j, c.host.opts.Logf, rec)
	}
	inst.mk.arrive(idx, interned, uint64(m.Seq), m.Vars)
	c.maybeFireLocked(ctx, m.Instance, inst)
}

// sendFault reports a failed firing to the wrapper.
func (c *coordinator) sendFault(ctx context.Context, instanceID string, cause error) {
	c.host.sendFault(ctx, c.composite, c.version, instanceID, c.table.State, cause)
}
