package engine

import (
	"context"
	"fmt"
	"maps"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"selfserv/internal/journal"
	"selfserv/internal/limits"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/transport"
)

// Wrapper is the composite service's entry point — the class the paper
// has providers "download and configure". It accepts execution requests,
// notifies the coordinators of the states "which need to be entered in
// the first place", then waits for the termination notices of the states
// "which are exited in the last place". The plan is compiled once at
// construction (deploy time); start guards, finish clauses, and event
// subscriptions are interpreted from the shared immutable compilation.
type Wrapper struct {
	station
	origin   // from is message.WrapperID
	compiled *routing.CompiledPlan

	// limiter, when set, gates instance admission per tenant (the
	// TenantVar input); nil admits everything. Sheds are counted in the
	// network's stats (both built-in networks keep them) under Addr.
	limiter *limits.Limiter
	sheds   transport.AvailabilityRecorder
	// jnl, when set, journals the wrapper side of every execution —
	// request inputs at start, each termination/fault notice as it
	// arrives, and the completion — so crash recovery can rebuild
	// in-flight instances and finish them.
	jnl *journal.Journal

	seq atomic.Int64

	// instances is lock-striped by instance-ID hash (instances.go); each
	// wrapperInstance carries its own mutex, so concurrent Executes and
	// the termination notices of distinct instances never contend.
	instances shardedTable[*wrapperInstance]

	// lifecycle is the drain bookkeeping: the in-flight gauge, the
	// draining flag (set by Drain/Close — new Executes are rejected with
	// ErrDraining), and the idle channel a drainer blocks on.
	lifecycle struct {
		mu       sync.Mutex // lockorder:instance — leaf; never held across sends or instance locks
		inflight int
		draining bool
		idle     chan struct{} // lazily made; closed when draining hits inflight==0
	}
	// abandoned counts instances failed by a force-Close with work still
	// in flight — the loud stat the old silent teardown never kept.
	abandoned atomic.Uint64
}

// beginInstance admits one execution into the in-flight gauge, or
// rejects it when the wrapper is draining.
func (w *Wrapper) beginInstance() error {
	lc := &w.lifecycle
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.draining {
		return fmt.Errorf("engine: composite %q: %w", w.composite, ErrDraining)
	}
	lc.inflight++
	return nil
}

// endInstance retires one execution from the gauge and wakes a pending
// drainer when the last one leaves.
func (w *Wrapper) endInstance() {
	lc := &w.lifecycle
	lc.mu.Lock()
	lc.inflight--
	if lc.draining && lc.inflight == 0 && lc.idle != nil {
		close(lc.idle)
		lc.idle = nil
	}
	lc.mu.Unlock()
}

// InFlight returns the number of executions currently inside
// ExecuteInstance — the per-version gauge a drain-aware swap watches.
func (w *Wrapper) InFlight() int {
	w.lifecycle.mu.Lock()
	defer w.lifecycle.mu.Unlock()
	return w.lifecycle.inflight
}

// Abandoned returns how many in-flight instances a force-Close failed.
func (w *Wrapper) Abandoned() uint64 { return w.abandoned.Load() }

// StartDrain flips the wrapper into draining mode without waiting: new
// executions are rejected with ErrDraining from the moment it returns,
// while in-flight instances keep running. A deployer calls it
// synchronously at version-swap time so no execution can slip into the
// old version after the new one went live; the (possibly backgrounded)
// Drain/Close that follows does the waiting.
func (w *Wrapper) StartDrain() {
	lc := &w.lifecycle
	lc.mu.Lock()
	lc.draining = true
	lc.mu.Unlock()
}

// Drain stops admitting new executions (they fail with ErrDraining) and
// blocks until every in-flight instance terminates or ctx is done. It
// returns the number of instances still in flight when it gave up — 0
// means a clean drain. Drain does NOT close the endpoint: the draining
// wrapper keeps receiving the termination notices its instances are
// waiting for.
func (w *Wrapper) Drain(ctx context.Context) int {
	lc := &w.lifecycle
	lc.mu.Lock()
	lc.draining = true
	if lc.inflight == 0 {
		lc.mu.Unlock()
		return 0
	}
	if lc.idle == nil {
		lc.idle = make(chan struct{})
	}
	idle := lc.idle
	lc.mu.Unlock()
	select {
	case <-idle:
		return 0
	case <-ctx.Done():
		return w.InFlight()
	}
}

// wrapperInstance tracks one running execution at the wrapper: the same
// kernel marking a coordinator keeps (kernel.go), over the compiled
// plan's finish universe. Finish clauses are preconditions that are
// never consumed — the instance completes when one holds — and their
// receiver-side guards (guarded transitions from a concurrent state into
// the root final) evaluate on the canonical merge for the same reason a
// coordinator's do: whichever exit's TypeDone arrived last, the bag must
// be the same, or complementary guards could all reject and Execute
// would hang — the wrapper-side twin of the seed-8 AND-join liveness
// bug.
type wrapperInstance struct {
	// done is created once at construction and never reassigned; it sits
	// above the mutex so lock-free waits (<-inst.done) stay legal.
	done chan struct{}

	mu       sync.Mutex // lockorder:instance — guards everything below; see instances.go for lock order
	mk       marking    // base layer: request inputs + non-finish-universe senders
	err      error
	finished bool
}

// newInstance builds the bookkeeping of one execution. inputs is handed
// over (ExecuteInstance's one copy of the client's map, Recover's decoded
// wstart record) and becomes the base layer LENT, as a round's bag does:
// the caller goes on to read it for the start messages, so the first base
// write — an event's payload — copies it first.
func (w *Wrapper) newInstance(inputs map[string]string) *wrapperInstance {
	inst := &wrapperInstance{done: make(chan struct{})}
	inst.mk.init(w.compiled.NumFinishSources(), w.compiled.FinishMaskWords())
	inst.mk.absorb(inputs, nil)
	return inst
}

// noticeLocked applies one termination or fault notice from src — the
// effect of one warrival record, whether it comes off the wire (handle),
// from a locally raised event (RaiseEvent) or out of the journal
// (Recover) — and finishes the instance once a finish clause holds or
// one's guard fails for good (marking.satisfied, the coordinator's scan:
// such a guard faults the instance there too, rather than leave Execute
// waiting for its caller's deadline). vars is handed over
// (marking.arrive). Caller holds inst.mu and has checked inst.finished.
func (w *Wrapper) noticeLocked(inst *wrapperInstance, src string, seq uint64, vars map[string]string, faultText string) {
	if faultText == ErrInstanceLost.Error() {
		inst.err = fmt.Errorf("%w: %w: state %s", ErrInstanceFault, ErrInstanceLost, src)
	} else if faultText != "" {
		inst.err = fmt.Errorf("%w: state %s: %s", ErrInstanceFault, src, faultText)
	} else {
		idx, interned := w.compiled.FinishSourceIndex(src)
		inst.mk.arrive(idx, interned, seq, vars)
		clause, _, err := inst.mk.satisfied(w.compiled.Finish, w.compiled.FinishMergeOrder(), w.funcEnv)
		if err != nil {
			inst.err = fmt.Errorf("%w: finish clause: %v", ErrInstanceFault, err)
		} else if clause == nil {
			return
		}
	}
	inst.finished = true
	close(inst.done)
}

// NewWrapper deploys the wrapper side of an already-compiled plan (the
// control plane compiles once and shares the artifact; a caller holding
// only a routing.Plan runs routing.CompilePlan first, which is where an
// ill-formed guard fails — at deploy time). It listens on addr and
// registers itself as the composite's WrapperID peer in dir, in the
// plan version's peer table (activated by SetCurrent).
//
// The wrapper is configured here, once, from the settings its
// platform's hosts share: opts.Funcs for guards, opts.Limits for
// per-tenant admission, opts.Journal for the wrapper's commit points.
// The other fields do not apply: a wrapper has no instance cap (an
// execution leaves its table when Execute returns) and logs nothing.
func NewWrapper(net transport.Network, addr string, dir *Directory, compiled *routing.CompiledPlan, opts HostOptions) (*Wrapper, error) {
	if err := compiled.Plan.Validate(); err != nil {
		return nil, err
	}
	w := &Wrapper{
		origin:   origin{dir: dir, composite: compiled.Plan.Composite, version: compiled.Version, from: message.WrapperID, funcEnv: opts.Funcs.Env()},
		compiled: compiled,
		limiter:  opts.Limits,
		jnl:      opts.Journal,
	}
	w.sheds, _ = net.(transport.AvailabilityRecorder)
	if err := w.listen(net, addr, "wrapper", w.handle); err != nil {
		return nil, err
	}
	dir.SetReplicasV(w.composite, w.version, message.WrapperID, []string{w.Addr()})
	return w, nil
}

// Composite returns the composite service name this wrapper fronts.
func (w *Wrapper) Composite() string { return w.composite }

// Version returns the compiled plan version this wrapper serves
// (zero for unversioned deployments).
func (w *Wrapper) Version() uint64 { return w.version }

// Close force-closes the wrapper: admission stops, every instance still
// in flight is FAILED (its Execute returns an abandonment error), the
// abandoned count is recorded, and the endpoint closes. The old
// behavior — tear down the endpoint and strand in-flight instances in a
// silent hang — was the redeploy data-loss bug; a caller that wants
// zero abandonment calls Drain first and Close only when InFlight
// reaches 0. Close returns a non-nil error exactly when it abandoned
// work.
func (w *Wrapper) Close() error {
	w.StartDrain()
	var failed int
	w.instances.forEach(func(id string, inst *wrapperInstance) {
		inst.mu.Lock()
		if !inst.finished {
			inst.err = fmt.Errorf("%w: instance %s abandoned: wrapper for %q v%d closed with the instance in flight",
				ErrInstanceFault, id, w.composite, w.version)
			inst.finished = true
			// Counted before the waiter is released: its Execute returns
			// the abandonment, and the count must already include it.
			w.abandoned.Add(1)
			close(inst.done)
			failed++
		}
		inst.mu.Unlock()
	})
	err := w.ep.Close()
	if failed > 0 && err == nil {
		err = fmt.Errorf("engine: composite %q v%d: force-close abandoned %d in-flight instance(s)",
			w.composite, w.version, failed)
	}
	return err
}

// Kill closes the wrapper's endpoint and nothing else: no drain, no
// abandonment bookkeeping, no journal records — the state a process
// kill leaves behind. The durability fault suite crashes platforms with
// it; in-flight Executes stay blocked until their context expires, and
// recovery (engine.Recover) is what completes their instances.
func (w *Wrapper) Kill() error { return w.ep.Close() }

// Execute runs one instance of the composite service with the given
// input variables and returns the final variable bag restricted to the
// composite's declared outputs (plus every input, which the paper's XML
// result documents also carry). It blocks until the instance terminates,
// faults, or ctx is done.
func (w *Wrapper) Execute(ctx context.Context, inputs map[string]string) (map[string]string, error) {
	id := "i" + strconv.FormatInt(w.seq.Add(1), 10)
	return w.ExecuteInstance(ctx, id, inputs)
}

// ExecuteInstance is Execute with a caller-chosen instance ID (IDs must
// be unique per wrapper).
func (w *Wrapper) ExecuteInstance(ctx context.Context, id string, inputs map[string]string) (map[string]string, error) {
	// The platform's one admission point. A draining wrapper refuses
	// first, so the refusal spends no token of the limiter it shares
	// with its replacement; then the tenant's bucket is charged before
	// ANY instance state exists (beginInstance only bumps the gauge).
	if err := w.beginInstance(); err != nil {
		return nil, err
	}
	defer w.endInstance()
	if err := w.limiter.Allow(inputs[TenantVar]); err != nil {
		if w.sheds != nil {
			w.sheds.RecordShed(w.Addr())
		}
		return nil, fmt.Errorf("engine: composite %q: %w", w.composite, err)
	}
	// The client's map stays the client's; this one copy is the base
	// layer, the start messages' bag and the wstart record's, all readers.
	inputs = maps.Clone(inputs)
	inst := w.newInstance(inputs)
	if !w.instances.insert(id, inst, false) {
		return nil, fmt.Errorf("engine: duplicate instance ID %q", id)
	}
	defer w.instances.remove(id)

	box, err := w.startPhase(id, inputs)
	if err != nil {
		return nil, err
	}
	// Write-ahead commit point: the request becomes durable before any
	// start message is sent, so a crash mid-start replays the WHOLE start
	// phase (the stamps are deterministic — see startPhase — and the
	// receivers' dedup drops whatever the first life already delivered).
	if w.jnl != nil {
		rec := newRecord(journal.KindWStart, w.composite, "", id, w.version)
		rec.Vars = inputs
		if jerr := commit(w.jnl, nil, rec); jerr != nil {
			box.release()
			return nil, fmt.Errorf("engine: journal start of %s: %w", w.composite, jerr)
		}
	}
	err = box.flush(ctx, w.sender)
	box.release()
	if err != nil {
		return nil, fmt.Errorf("engine: start %s: %w", w.composite, err)
	}

	select {
	case <-inst.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("engine: composite %q instance %s: %w", w.composite, id, ctx.Err())
	}
	out, err := w.outcome(inst)
	w.journalDone(id, err)
	return out, err
}

// outcome returns a terminated instance's fault, or its projected
// outputs. The final bag is the same canonical merge the finish clauses
// were evaluated on (handle/RaiseEvent stop writing once finished is
// set, but the cache build itself must still happen under the lock).
func (w *Wrapper) outcome(inst *wrapperInstance) (map[string]string, error) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.err != nil {
		return nil, inst.err
	}
	return projectOutputs(w.compiled.Plan, inst.mk.vars(w.compiled.FinishMergeOrder())), nil
}

// startPhase runs the wrapper's postprocessing (origin.notify) over the
// entry targets on the request inputs and returns the outbox of start
// notifications, borrowed from outboxes: the caller flushes and releases
// it (on an error there is none to release). The start messages carry
// inputs itself — the instance's lent base layer (newInstance), which
// nobody writes: once the first start message is out a concurrent
// RaiseEvent may be writing the base, and it copies a lent base first.
//
// When journaling, each start message is sequence-stamped 1..k in
// compiled-plan iteration order — deterministic, so a crash-recovery
// re-run of the phase produces IDENTICAL stamps and the coordinators'
// dedup marks absorb the overlap with whatever the first life already
// delivered.
func (w *Wrapper) startPhase(id string, inputs map[string]string) (*outbox, error) {
	box := outboxes.Get().(*outbox)
	var seq uint64
	var stamp *uint64
	if w.jnl != nil {
		stamp = &seq
	}
	err := w.notify(box, w.compiled.Start, id, inputs, stamp, nil)
	if err == nil && box.empty() {
		err = fmt.Errorf("engine: composite %q: no start condition matched the request", w.composite)
	}
	if err != nil {
		box.release()
		return nil, err
	}
	return box, nil
}

// journalDone records an instance's completion (or fault) so recovery
// knows not to rebuild it. Best-effort: losing it means recovery would
// rebuild a finished instance, whose redelivered frames the
// coordinators' dedup then absorbs.
func (w *Wrapper) journalDone(id string, instErr error) {
	if w.jnl == nil {
		return
	}
	rec := newRecord(journal.KindWDone, w.composite, "", id, w.version)
	if instErr != nil {
		rec.Error = instErr.Error()
	}
	commit(w.jnl, nil, rec)
}

// projectOutputs filters a final bag to the plan's declared
// inputs+outputs; when the plan declares no outputs the whole bag is
// returned. Reserved '$'-prefixed variables (TenantVar and friends) are
// engine metadata, never part of the result document. Wrapper and
// Central share it, so the two can only differ in how they got the bag.
func projectOutputs(plan *routing.Plan, vars map[string]string) map[string]string {
	if len(plan.Outputs) == 0 {
		out := make(map[string]string, len(vars))
		for k, v := range vars {
			if strings.HasPrefix(k, "$") {
				continue
			}
			out[k] = v
		}
		return out
	}
	out := map[string]string{}
	for _, p := range plan.Inputs {
		if v, ok := vars[p.Name]; ok {
			out[p.Name] = v
		}
	}
	for _, p := range plan.Outputs {
		if v, ok := vars[p.Name]; ok {
			out[p.Name] = v
		}
	}
	return out
}

// RaiseEvent delivers an ECA event to a running instance: every state
// whose precondition subscribes to the event receives a notification from
// the "$event:<name>" pseudo-source, carrying the event's payload
// variables. Raising an event the plan never references is a no-op (the
// paper's composite consumes only declared events). Subscriber sets are
// precomputed at compile time.
func (w *Wrapper) RaiseEvent(ctx context.Context, instanceID, event string, payload map[string]string) error {
	subscribers := w.compiled.EventSubscribers(event)
	src := w.origin // the subscribers hear from the event's pseudo-source
	src.from = routing.EventSource(event)

	// Routing needs the instance's tenant, which came in with the start
	// request, not necessarily with this event payload.
	tenant := payload[TenantVar]

	// The wrapper's own finish clauses may reference the event too.
	if inst, ok := w.instances.get(instanceID); ok {
		inst.mu.Lock()
		if t, ok := inst.mk.base[TenantVar]; ok {
			tenant = t
		}
		if !inst.finished {
			// The payload stays the caller's, and the subscribers' messages
			// below read it: the marking gets its own copy to keep.
			w.noticeLocked(inst, src.from, 0, maps.Clone(payload), "")
		}
		inst.mu.Unlock()
	}

	// Subscribers co-hosted at one address share a frame (same coalescing
	// as the start phase).
	box := outboxes.Get().(*outbox)
	defer box.release()
	for _, state := range subscribers {
		addr, err := src.route(state, instanceID, tenant)
		if err != nil {
			return fmt.Errorf("engine: event %q: %w", event, err)
		}
		src.message(box.next(addr), instanceID, state, 0, payload)
	}
	if err := box.flush(ctx, w.sender); err != nil {
		return fmt.Errorf("engine: event %q: %w", event, err)
	}
	return nil
}

// handle receives termination and fault notices from exit coordinators.
func (w *Wrapper) handle(_ context.Context, m *message.Message) {
	if m.Composite != w.composite {
		return
	}
	inst, ok := w.instances.get(m.Instance)
	if !ok {
		return // late notice after completion: drop
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.finished {
		return // duplicate notice after completion: drop
	}
	var faultText string
	switch m.Type {
	case message.TypeDone:
		// Recovery redelivers journaled rounds conservatively; a stamped
		// notice this instance already applied is dropped, not re-journaled.
		if idx, ok := w.compiled.FinishSourceIndex(m.From); ok && inst.mk.duplicate(idx, uint64(m.Seq)) {
			return
		}
	case message.TypeFault:
		// The record tells a fault from a termination by its error text.
		if faultText = m.Error; faultText == "" {
			faultText = "unspecified fault"
		}
	default:
		return
	}
	// Write-ahead commit point: the notice is durable before it is
	// applied.
	if w.jnl != nil {
		rec := newRecord(journal.KindWArrival, w.composite, "", m.Instance, w.version)
		rec.Src = m.From
		rec.Seq = uint64(m.Seq)
		rec.Vars = m.Vars
		rec.Error = faultText
		commit(w.jnl, nil, rec)
	}
	w.noticeLocked(inst, m.From, uint64(m.Seq), m.Vars, faultText)
}
