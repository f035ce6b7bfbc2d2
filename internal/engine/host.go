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
	// Limits, when set, gates remote TypeInvoke requests per tenant
	// (message variable engine.TenantVar). Nil admits everything.
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
// (used by the centralized baseline and by remote wrappers).
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

	// Swap observability: frames that reached this host under a stale
	// directory snapshot and were forwarded to the right replica, and
	// frames that could not be placed at all (version retired everywhere).
	rerouted     atomic.Uint64
	droppedStale atomic.Uint64

	// Lifecycle observability: instances whose live state was LOST to a
	// cap-hit eviction (no journal, or the passivation write failed),
	// finished instances retired from once tables, instances passivated to
	// the journal, and passivated instances rehydrated by a later frame.
	evicted    atomic.Uint64
	retired    atomic.Uint64
	passivated atomic.Uint64
	rehydrated atomic.Uint64
}

// SwapStats reports how many stale-snapshot frames this host re-routed
// and how many it had to drop (faulting the instance). Both should stay
// zero in a steady state; they only move during a fleet rollout.
type SwapStats struct {
	Rerouted     uint64
	DroppedStale uint64
}

// SwapStats returns the host's stale-frame counters.
func (h *Host) SwapStats() SwapStats {
	return SwapStats{Rerouted: h.rerouted.Load(), DroppedStale: h.droppedStale.Load()}
}

// Evicted counts live instances dropped at the cap with their state
// LOST, and only those: a journal passivates instead, and a finished
// instance of a once table was Retired first. Every increment is logged
// loudly — a lost instance stalls or faults its composite.
func (h *Host) Evicted() uint64 { return h.evicted.Load() }

// Retired counts finished instances that left a once table as their round ended.
func (h *Host) Retired() uint64 { return h.retired.Load() }

// Passivated counts instances serialized to the journal at a cap hit.
func (h *Host) Passivated() uint64 { return h.passivated.Load() }

// Rehydrated counts passivated instances restored into RAM by a later
// notification.
func (h *Host) Rehydrated() uint64 { return h.rehydrated.Load() }

// reroutedVar marks a frame that was already forwarded once by a host
// that had no coordinator for it ('$'-prefixed: engine metadata, never
// a service parameter). One hop is enough to cover the stale-snapshot
// window; a second miss means the version is gone and the frame drops.
const reroutedVar = "$rerouted"

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
			h.redirect(ctx, m)
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

// redirect handles a start/notify frame that reached a host with no
// matching coordinator. During a fleet rollout a sender may route under
// a stale directory snapshot (pushes are atomic per host, not across
// the fleet): the frame is DETECTED here — the version pin doesn't
// match any local coordinator — and re-routed once via this host's own
// directory rather than misdelivered into the wrong version's state. A
// frame that still has no home (its version was retired everywhere, or
// it already took its one re-route hop) is dropped loudly: counted,
// logged, and the instance faulted to its wrapper so the client fails
// instead of hanging.
func (h *Host) redirect(ctx context.Context, m *message.Message) {
	if m.Vars[reroutedVar] == "" {
		if addr, ok := h.dir.RouteV(m.Composite, m.Version, m.To, m.Instance, m.Vars[TenantVar]); ok && addr != h.Addr() {
			fwd := m.Clone()
			fwd.MergeVars(map[string]string{reroutedVar: "1"})
			if err := h.sender.Send(ctx, addr, fwd); err == nil {
				h.rerouted.Add(1)
				h.logf("host %s: re-routed stale frame for %s/%s v%d to %s", h.Addr(), m.Composite, m.To, m.Version, addr)
				return
			}
		}
	}
	h.droppedStale.Add(1)
	h.logf("host %s: no coordinator for %s/%s v%d; dropping %s", h.Addr(), m.Composite, m.To, m.Version, m)
	h.sendFault(ctx, m.Composite, m.Version, m.Instance, m.To,
		fmt.Errorf("engine: frame for retired plan version %d of %s/%s dropped", m.Version, m.Composite, m.To))
}

// sendFault reports that instance failed at peer from to the composite's
// wrapper — the exact plan version's registration, else the current one,
// so a retired version's fault still reaches somebody who can log it
// against the instance.
func (h *Host) sendFault(ctx context.Context, composite string, version uint64, instance, from string, cause error) {
	addr, found := h.dir.LookupV(composite, version, message.WrapperID)
	if !found {
		addr, found = h.dir.LookupV(composite, 0, message.WrapperID)
	}
	if !found {
		h.logf("host %s: fault of %s/%s with no wrapper address: %v", h.Addr(), composite, from, cause)
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
// in To) and replies with a TypeResult to m.ReplyTo.
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
	} else if err := h.opts.Limits.Allow(m.Vars[TenantVar]); err != nil {
		// Per-tenant admission: the shed is decided before the provider
		// is touched, and surfaces in this host's transport stats.
		h.shed()
		reply.Error = err.Error()
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
			IdempotencyKey: m.Composite + "/" + m.Instance + "/" + m.To,
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
	// hydrated is false until the instance has checked the journal's
	// passive index for an earlier life to restore (always true without a
	// journal, and for instances recovery rebuilds).
	hydrated bool
}

func (c *coordinator) newInstance(hydrated bool) *coordInstance {
	inst := &coordInstance{hydrated: hydrated}
	inst.mk.init(c.table.NumSources(), c.table.MaskWords())
	return inst
}

// onNotification processes a start/notify message for one instance.
func (c *coordinator) onNotification(ctx context.Context, m *message.Message) {
	inst := c.instance(m.Instance)
	inst.mu.Lock()
	inst = c.currentLocked(m.Instance, inst)
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
