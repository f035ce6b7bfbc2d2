package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"selfserv/internal/expr"
	"selfserv/internal/journal"
	"selfserv/internal/limits"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
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
	// workers run every coordinator firing on this host (workers.go).
	workers *fireWorkers

	mu     sync.RWMutex
	coords map[coordKey]*coordinator

	// Swap observability: frames that reached this host under a stale
	// directory snapshot and were forwarded to the right replica, and
	// frames that could not be placed at all (version retired everywhere).
	rerouted     atomic.Uint64
	droppedStale atomic.Uint64

	// Durability observability: instances whose state was LOST to a
	// cap-hit eviction (no journal, or the passivation write failed),
	// instances passivated to the journal, and passivated instances
	// rehydrated back into RAM on a later frame.
	evicted    atomic.Uint64
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
// LOST — the pre-durability FIFO eviction. With a journal configured
// this should stay zero (cap hits passivate instead); every increment
// is also logged loudly, because a lost instance stalls or faults its
// composite.
func (h *Host) Evicted() uint64 { return h.evicted.Load() }

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
// It is the one way in and takes the compiled table (the deployer
// compiles the plan it holds, hostapi the document a remote push
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
		sort.Strings(states)
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
// Instance bookkeeping is LOCK-STRIPED (see shard.go): the instance
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
	mu      sync.Mutex // lockorder:instance — guards everything below; see shard.go for lock order
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

func (c *coordinator) instance(id string) *coordInstance {
	return c.instances.getOrCreate(id, c.host.opts.MaxInstancesPerState, func() *coordInstance {
		return c.newInstance(c.host.opts.Journal == nil)
	}, c.onEvict)
}

// evictScratch backs the Sources of the passivation record an eviction
// builds, for tables of up to inlineSources sources (the record itself
// is a stack value; what it points at cannot be — see roundScratch). It
// belongs to the table stripe under whose mutex onEvict runs (shard.go),
// so an eviction allocates nothing, and onEvict zeroes it once the
// journal has encoded the record, so a stripe pins no evicted instance's
// bags.
type evictScratch struct {
	sources [inlineSources]journal.SourceState
}

// onEvict is consulted by the instance table when a cap-hit create
// needs room: it runs under the shard mutex, so it may only TryLock the
// victim (see shard.go's lock-order note). A victim with an invocation
// in flight — or one whose mutex is busy — is vetoed. Otherwise, with a
// journal configured, the victim's full state is serialized as a
// passivation record (rehydrated transparently by its next frame); with
// no journal, the state is LOST, counted, and logged loudly.
//
// The passivation record is STAGED: no effect waits for it, so it rides
// the next commit of its journal shard instead of costing a write of its
// own. The instance is passive from this moment all the same (the
// journal answers TakePassive from what is staged), and a kill before
// that commit loses a recovery shortcut and nothing else — the arrival
// and round records the snapshot summarizes were written through, so
// Recover rebuilds the instance from them.
func (c *coordinator) onEvict(id string, inst *coordInstance, scratch *evictScratch) bool {
	if !inst.mu.TryLock() {
		return false
	}
	defer inst.mu.Unlock()
	if inst.running {
		return false
	}
	// A freshly created object whose first notification has not yet been
	// applied (or whose passive state has not been read back) must not be
	// selected: passivating it would append an EMPTY snapshot that
	// shadows the instance's real record in the journal's passive index,
	// losing every arrival it had accumulated. The creator is about to
	// lock it anyway; veto and let the scan pick an older entry.
	if !inst.hydrated {
		return false
	}
	if j := c.host.opts.Journal; j != nil {
		rec := newRecord(journal.KindPassivate, c.composite, c.table.State, id, c.version)
		rec.Sources = scratch.sources[:0]
		inst.mk.snapshot(rec, c.table.SourceName)
		err := stage(j, c.host.opts.Logf, rec)
		*scratch = evictScratch{}
		if err == nil {
			c.host.passivated.Add(1)
			if logf := c.host.opts.Logf; logf != nil {
				logf("coord %s/%s: passivated instance %s at cap %d",
					c.composite, c.table.State, id, c.host.opts.MaxInstancesPerState)
			}
			return true
		}
		c.host.logf("coord %s/%s: falling back to LOSSY eviction of %s", c.composite, c.table.State, id)
	}
	c.host.evicted.Add(1)
	if logf := c.host.opts.Logf; logf != nil {
		logf("coord %s/%s: EVICTED live instance %s at cap %d — its state is lost and the execution will stall or fault",
			c.composite, c.table.State, id, c.host.opts.MaxInstancesPerState)
	}
	return true
}

// snapshotLocked serializes inst as a snapshot or passivation record.
// Caller holds inst.mu.
func (c *coordinator) snapshotLocked(kind string, instanceID string, inst *coordInstance) *journal.Record {
	r := newRecord(kind, c.composite, c.table.State, instanceID, c.version)
	inst.mk.snapshot(r, c.table.SourceName)
	return r
}

// rehydrateLocked gives a freshly created instance its earlier life
// back, if the journal holds a passivation record for it. Runs at most
// once per in-RAM object; caller holds inst.mu and has confirmed table
// membership.
func (c *coordinator) rehydrateLocked(instanceID string, inst *coordInstance) {
	if inst.hydrated {
		return
	}
	inst.hydrated = true
	r, ok, err := c.host.opts.Journal.TakePassive(c.composite, c.table.State, instanceID)
	if err != nil {
		c.host.logf("coord %s/%s: rehydrate %s: %v", c.composite, c.table.State, instanceID, err)
		return
	}
	if !ok {
		return
	}
	inst.mk.restore(r, c.table.SourceIndex)
	c.host.rehydrated.Add(1)
	c.host.logf("coord %s/%s: rehydrated instance %s (fireSeq %d)",
		c.composite, c.table.State, instanceID, r.FireSeq)
}

// currentLocked returns the object the table holds for id RIGHT NOW —
// inst, if it is still that object — locked and rehydrated. Caller holds
// inst.mu and trades it for the returned instance's. Between a table
// lookup and taking inst.mu, an over-cap create in this shard may have
// evicted inst, and a later notification may already have re-created
// the ID: membership is re-checked under the lock and the current
// pointer chased, so one instance's notifications and clause checks can
// never split across an orphaned object and its fresh twin (the
// single-mutex design excluded this by construction; eviction of a live
// instance without a journal still loses its state, as documented, but
// it must lose it to ONE object).
func (c *coordinator) currentLocked(id string, inst *coordInstance) *coordInstance {
	for {
		cur, ok := c.instances.get(id)
		if ok && cur == inst {
			break
		}
		inst.mu.Unlock()
		inst = c.instance(id)
		inst.mu.Lock()
	}
	// A fresh in-RAM object may be the reincarnation of a passivated
	// instance: restore it from the journal before anything is applied.
	c.rehydrateLocked(id, inst)
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

// maybeFireLocked checks precondition clauses (marking.satisfied) and
// hands the service invocation to a firing worker (workers.go) when one
// holds; a guard that fails for good faults the instance. Caller holds
// inst.mu.
func (c *coordinator) maybeFireLocked(ctx context.Context, instanceID string, inst *coordInstance) {
	if inst.running {
		return
	}
	clause, err := inst.mk.satisfied(c.table.Preconditions, c.table.MergeOrder(), c.funcEnv)
	if clause == nil {
		if err != nil {
			go c.sendFault(ctx, instanceID, err)
		}
		return
	}
	inst.mk.consume(clause.SourceIndexes())
	// The firing works on a private copy of the bag: applyActions
	// already copies, and with no actions to apply the cached merge
	// itself is handed over.
	var snapshot map[string]string
	if len(clause.Actions) > 0 {
		snapshot, err = applyActions(clause.Actions, inst.mk.vars(c.table.MergeOrder()), c.funcEnv)
		if err != nil {
			go c.sendFault(ctx, instanceID, err)
			return
		}
	} else {
		snapshot = inst.mk.takeVars(c.table.MergeOrder())
	}
	inst.running = true
	// The round record replays the same decrements on recovery, so it
	// names the clause's sources.
	c.host.workers.dispatch(firing{
		c: c, ctx: ctx, instance: instanceID, inst: inst,
		fireSeq: inst.mk.nextFire(), vars: snapshot, consumed: clause.Sources,
	})
}

// fire invokes the component service and runs postprocessing. fireSeq
// numbers this firing within the instance; consumed names the sources of
// the matched clause (for the round record), and scratch is the firing
// worker's (nil without a journal). inst stays the table's entry for the
// whole firing: onEvict vetoes running instances. vars is only READ here
// (the marking may still reach it: takeVars); finish binds the outputs.
func (c *coordinator) fire(ctx context.Context, instanceID string, inst *coordInstance, fireSeq uint64, vars map[string]string, consumed []string, scratch *roundScratch) {
	if logf := c.host.opts.Logf; logf != nil {
		logf("coord %s/%s: firing instance %s", c.composite, c.table.State, instanceID)
	}

	params, err := bindInputs(c.table.Inputs, vars, c.funcEnv)
	var resp service.Response
	if err == nil {
		// The idempotency key names the LOGICAL firing — composite,
		// instance, state, firing number — never the provider that ends
		// up executing it: a community retrying the invocation on an
		// alternative member after a failure replays the cached response
		// instead of executing the operation twice. The same property
		// carries across a CRASH: recovery replays the journal up to the
		// last completed round, so a re-fired interrupted round computes
		// the same fireSeq, presents the same key, and — with the journaled
		// invoke outcome primed back into service.Idempotent — replays the
		// completed invocation instead of executing it a second time.
		key := c.composite + "/" + instanceID + "/" + c.table.State + "/" + strconv.FormatUint(fireSeq, 10)
		resp, err = c.host.registry.Invoke(ctx, service.Request{
			Service:        c.table.Service,
			Operation:      c.table.Operation,
			Params:         params,
			Tenant:         vars[TenantVar],
			IdempotencyKey: key,
		})
		// The invocation's outcome is durable before its effects propagate
		// — and they propagate through the round, so the record is staged
		// and the round's commit carries it in the same write. A kill in
		// between leaves neither on disk and the step re-executes once, as
		// after a kill during the call itself. Only successes are recorded
		// — Idempotent forgets failures, and so does the journal, so a crash
		// between a failed attempt and its retry re-executes (correct).
		if j := c.host.opts.Journal; j != nil && err == nil {
			rec := newRecord(journal.KindInvoke, c.composite, c.table.State, instanceID, c.version)
			rec.Service = c.table.Service
			rec.Key = key
			rec.Outputs = resp.Outputs
			rec.FireSeq = fireSeq
			stage(j, c.host.opts.Logf, rec)
		}
	}
	c.finish(ctx, instanceID, inst, fireSeq, vars, resp.Outputs, consumed, scratch, err)
}

// finish closes a firing: it binds the provider's outputs into the bag,
// absorbs the round, runs postprocessing on the round's final bag
// (origin.notify) into an outbox, journals the round, flushes the outbox
// once (peers co-hosted at one address share a single wire frame,
// per-destination FIFO order preserved) and re-checks pending clauses
// (loops). A non-nil err is the invocation's failure: the round is
// skipped and the instance faulted.
func (c *coordinator) finish(ctx context.Context, instanceID string, inst *coordInstance, fireSeq uint64, vars, outputs map[string]string, consumed []string, scratch *roundScratch, err error) {
	var box outbox
	inst.mu.Lock()
	if err != nil {
		inst.mk.untake()
	} else {
		// One critical section holds the first write to the firing's bag
		// (a taken layer stops being a layer where it is written), the
		// absorption, the outbox and the round record. The journal
		// serializes an instance's records (one WAL shard), so an arrival
		// journaled after this record is an arrival applied after it —
		// replay clears exactly the bags this round absorbed, never a
		// fresher one that interleaved — and each outbound message's
		// sequence stamp is covered by the record.
		// Postprocessing is pure evaluation plus a directory read
		// (instance before directory is fine); the flush happens outside
		// the lock, after it.
		bindOutputs(c.table.Outputs, outputs, vars)
		var buf [8]int
		cleared := inst.mk.absorbed(buf[:0])
		inst.mk.absorb(vars, cleared)
		// Journal-less frames carry no stamp; the journal form of the
		// stamped ones is built in scratch, the firing worker's.
		j := c.host.opts.Journal
		var seq *uint64
		var msgs []journal.OutMsg
		var logged *[]journal.OutMsg
		if j != nil {
			msgs = scratch.msgs[:0]
			seq, logged = &inst.mk.sendSeq, &msgs
		}
		err = c.notify(&box, c.table.Postprocessings, instanceID, vars, seq, logged)
		if j != nil && err == nil {
			rec := newRecord(journal.KindRound, c.composite, c.table.State, instanceID, c.version)
			rec.FireSeq = fireSeq
			rec.Consumed = consumed
			rec.Vars = vars
			rec.SendSeq = inst.mk.sendSeq
			rec.Msgs = msgs
			rec.Cleared = scratch.cleared[:0]
			for _, idx := range cleared {
				rec.Cleared = append(rec.Cleared, c.table.SourceName(idx))
			}
			// The round is on the fd before its outbox flushes. A periodic
			// snapshot — it bounds replay work (and, after compaction,
			// journal size) for long-lived instances — is written at the
			// same boundary, so the round is staged and rides it.
			if every := j.SnapshotEvery(); every > 0 && fireSeq%uint64(every) == 0 {
				stage(j, c.host.opts.Logf, rec)
				commit(j, c.host.opts.Logf, c.snapshotLocked(journal.KindSnapshot, instanceID, inst))
			} else {
				commit(j, c.host.opts.Logf, rec)
			}
		}
		if scratch != nil {
			*scratch = roundScratch{} // encoded, or never to be: the worker pins no instance's bag
		}
	}
	inst.running = false
	inst.mu.Unlock()

	if err != nil {
		c.sendFault(ctx, instanceID, err)
		return
	}
	if err := box.flush(ctx, c.host.sender); err != nil {
		c.sendFault(ctx, instanceID, fmt.Errorf("engine: notify peers of %s: %w", c.table.State, err))
		return
	}
	if logf := c.host.opts.Logf; logf != nil {
		logf("coord %s/%s: instance %s notified %d peer(s) in %d frame(s)",
			c.composite, c.table.State, instanceID, box.msgs(), box.frames())
	}

	// Loops: the consumed clause may already be re-satisfiable. running
	// was false and the mutex free for the whole flush, so at the cap the
	// instance may have been passivated meanwhile: the clauses are checked
	// on whatever object the table holds NOW. Firing the orphan instead
	// would journal a round after the passivation record, un-index it, and
	// leave the instance neither in RAM nor passive.
	inst.mu.Lock()
	inst = c.currentLocked(instanceID, inst)
	c.maybeFireLocked(ctx, instanceID, inst)
	inst.mu.Unlock()
}

// sendFault reports a failed firing to the wrapper.
func (c *coordinator) sendFault(ctx context.Context, instanceID string, cause error) {
	c.host.sendFault(ctx, c.composite, c.version, instanceID, c.table.State, cause)
}

// bindInputs computes the service call parameters from the instance
// variables per the state's compiled input bindings. A binding with Var
// copies the variable (missing variables are an error: the precondition
// fired, so dataflow should have delivered them); a binding with a
// compiled Expr evaluates it.
func bindInputs(bindings []routing.CompiledBinding, vars map[string]string, funcs expr.Env) (map[string]string, error) {
	if len(bindings) == 0 {
		return nil, nil // nil params: providers read, never write, their input map
	}
	params := make(map[string]string, len(bindings))
	for _, b := range bindings {
		switch {
		case b.Var != "":
			v, ok := vars[b.Var]
			if !ok {
				return nil, fmt.Errorf("engine: input %q needs undefined variable %q", b.Param, b.Var)
			}
			params[b.Param] = v
		case b.Expr != nil:
			v, err := b.Expr.Eval(evalEnv(vars, funcs))
			if err != nil {
				return nil, fmt.Errorf("engine: input %q: %w", b.Param, err)
			}
			params[b.Param] = v.Text()
		}
	}
	return params, nil
}

// bindOutputs copies operation outputs into the instance variable bag per
// the state's output bindings. Unbound outputs are ignored; bound-but-
// missing outputs simply don't set the variable (services may omit
// optional outputs).
func bindOutputs(bindings []statechart.Binding, outputs, vars map[string]string) {
	for _, b := range bindings {
		if v, ok := outputs[b.Param]; ok {
			vars[b.Var] = v
		}
	}
}
