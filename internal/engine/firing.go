package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"selfserv/internal/expr"
	"selfserv/internal/journal"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
)

// This file is a firing: first the hand-off (docs/engine.md, "Firing
// hand-off") — how a clause that maybeFireLocked matched gets a goroutine
// to run on — then, below it, the match, the provider call and the round.
// A firing's deepest frames — bindInputs, the outbox flush into the
// transport send path, the journal encoder — overflow a fresh goroutine's
// 2 KiB stack, so spawning one per firing paid a stack copy (and a
// newproc) on every hop. Firings run on workers instead: goroutines that
// have fired before, whose stacks are already grown, and that park on an
// unbuffered channel between firings.
//
// There is no queue. A firing is handed to a worker that is parked right
// now, or a new worker is started for it: it never waits behind another
// firing or a provider still executing, and the dispatching goroutine —
// a receive lane holding inst.mu — never blocks.

// maxIdleWorkers bounds how many workers stay parked per host between
// firings; a worker that finishes while that many are parked exits.
// Eight covers the widest burst the paper's shapes produce on one host
// (an 8-way AND-split delivered back to back by one lane).
const maxIdleWorkers = 8

const snapshotRounds = 8 // how many rounds apart finish journals an instance's snapshot

// firing is one matched clause on its way to a worker, by value: the
// arguments of coordinator.fire.
type firing struct {
	c        *coordinator
	ctx      context.Context
	instance string
	inst     *coordInstance
	fireSeq  uint64
	vars     map[string]string
	consumed []string
}

// roundScratch backs the two slices of the round record a firing
// journals — the outbound messages and the names of the absorbed sources
// — for rounds of up to four of each (every shipped shape; a wider round
// grows onto the heap as any append does). A worker of a journaling host
// owns one for life, so a round record allocates nothing; finish zeroes
// it once the journal has encoded the record. A stack array would not
// do: Journal.Append leaks a record's contents (its encoder keeps the
// strings of a record's bags, its errors box the names), so escape
// analysis moves whatever a Record points at to the heap.
type roundScratch struct {
	msgs    [4]journal.OutMsg
	cleared [inlineSources]string
}

// fireWorkers is a host's set of firing workers. Its bookkeeping is
// atomic, not mutex-guarded: a worker descheduled inside a critical
// section would hold every other worker out of its park, and each firing
// arriving meanwhile would start a goroutine.
type fireWorkers struct {
	jobs chan firing   // unbuffered: a send succeeds only into a parked worker
	quit chan struct{} // closed by close: parked workers exit
	// spawned counts workers started because no worker was parked — off
	// the steady-state path, where every firing finds one.
	spawned atomic.Uint64
	idle    atomic.Int32 // workers parked, or on their way into or out of a park
	closed  atomic.Bool
	// parked is read-held by every parked worker, so that close can wait
	// for them by taking the write lock once (a WaitGroup would not do:
	// workers keep arriving while close waits).
	parked sync.RWMutex
}

func newFireWorkers() *fireWorkers {
	return &fireWorkers{jobs: make(chan firing), quit: make(chan struct{})}
}

// dispatch starts f: on a parked worker if one is receiving at this
// instant, else on a new one. It never blocks — callers hold inst.mu.
func (w *fireWorkers) dispatch(f firing) {
	select {
	case w.jobs <- f:
	default:
		w.spawned.Add(1)
		go w.work(f)
	}
}

// work runs f, then every firing handed to this worker while it is
// parked, until the idle bound or close turns it away.
func (w *fireWorkers) work(f firing) {
	box := new(outbox)            // every round's messages, this worker's for life
	params := map[string]string{} // every firing's provider inputs, this worker's for life
	var scratch *roundScratch     // nil on a host with no journal, which w's one host has or has not for good
	if f.c.host.opts.Journal != nil {
		scratch = new(roundScratch)
	}
	for {
		f.c.fire(f.ctx, f.instance, f.inst, f.fireSeq, f.vars, f.consumed, box, params, scratch)
		box.reset()
		clear(params) // the provider only borrowed it (service.Request.Params)
		f = firing{}  // a parked worker pins no instance's bag (finish has zeroed scratch)
		if !w.park() {
			return
		}
		select {
		case f = <-w.jobs:
			w.unpark()
		case <-w.quit:
			w.unpark()
			return
		}
	}
}

// park reports whether the calling worker may wait for another firing.
func (w *fireWorkers) park() bool {
	if w.idle.Add(1) > maxIdleWorkers {
		w.idle.Add(-1)
		return false
	}
	w.parked.RLock()
	if w.closed.Load() {
		w.unpark()
		return false
	}
	return true
}

func (w *fireWorkers) unpark() {
	w.parked.RUnlock()
	w.idle.Add(-1)
}

// close retires the parked workers and returns once each has left its
// park. A worker still firing — its provider may be blocked — is not
// waited for: it exits when its firing ends, as a firing in flight at
// Close always has.
func (w *fireWorkers) close() {
	if w.closed.CompareAndSwap(false, true) {
		close(w.quit)
	}
	// Every worker parked before closed was set holds the read lock until
	// quit wakes it; one that arrives later sees closed and lets go.
	w.parked.Lock()
	w.parked.Unlock()
}

// maybeFireLocked checks precondition clauses (marking.satisfied) and
// hands the service invocation to a firing worker (above) when one
// holds; a guard that fails for good faults the instance, and an
// instance the check leaves untaken may retire (retireLocked). Caller
// holds inst.mu, on the object the table holds for instanceID.
func (c *coordinator) maybeFireLocked(ctx context.Context, instanceID string, inst *coordInstance) {
	if inst.running {
		return
	}
	clause, untaken, err := inst.mk.satisfied(c.table.Preconditions, c.table.MergeOrder(), c.funcEnv)
	if clause == nil {
		if err != nil {
			go c.sendFault(ctx, instanceID, err)
		} else if untaken {
			c.retireLocked(instanceID, inst, true)
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
// the matched clause (for the round record). box, params and scratch are
// the firing worker's: box and params empty, scratch nil without a
// journal. inst stays the table's entry for the whole firing: onEvict
// vetoes running instances. vars is only READ here (the marking may still
// reach it: takeVars); finish binds the outputs.
func (c *coordinator) fire(ctx context.Context, instanceID string, inst *coordInstance, fireSeq uint64, vars map[string]string, consumed []string, box *outbox, params map[string]string, scratch *roundScratch) {
	if logf := c.host.opts.Logf; logf != nil {
		logf("coord %s/%s: firing instance %s", c.composite, c.table.State, instanceID)
	}

	req, err := c.request(instanceID, fireSeq, vars, params)
	var resp service.Response
	if err == nil {
		resp, err = c.host.registry.Invoke(ctx, req)
		// The invocation's outcome is durable before its effects propagate
		// — and they propagate through the round, so the record is staged
		// and the round's commit carries it in the same write. A kill in
		// between leaves neither on disk and the step re-executes once, as
		// after a kill during the call itself. Only successes are recorded
		// — Idempotent forgets failures, and so does the journal, so a crash
		// between a failed attempt and its retry re-executes (correct).
		if j := c.host.opts.Journal; j != nil && err == nil {
			// Its Composite, Instance, State and FireSeq are the key's fields.
			rec := newRecord(journal.KindInvoke, c.composite, c.table.State, instanceID, c.version)
			rec.Service = c.table.Service
			rec.Outputs = resp.Outputs
			rec.FireSeq = fireSeq
			stage(j, c.host.opts.Logf, rec)
		}
	}
	c.finish(ctx, instanceID, inst, fireSeq, vars, resp.Outputs, consumed, box, scratch, err)
}

// request is a firing's provider call: the state's inputs bound into
// params (the firing worker's map) and the key of the LOGICAL firing,
// never of the provider that ends up executing it. A community retrying
// on another member after a failure replays the cached response instead
// of executing twice; across a CRASH, a re-fired round computes the same
// fireSeq from the replayed journal and presents the same key, which
// recovery has primed with the journaled outcome (primeInvoke). Warm, it
// allocates nothing (TestWarmRequestAllocatesNothing).
func (c *coordinator) request(instanceID string, fireSeq uint64, vars, params map[string]string) (service.Request, error) {
	key := service.Key{Composite: c.composite, Instance: instanceID, State: c.table.State, Seq: fireSeq}
	err := bindInputs(params, c.table.Inputs, vars, c.funcEnv)
	return service.Request{Service: c.table.Service, Operation: c.table.Operation, Params: params, Tenant: vars[TenantVar], IdempotencyKey: key}, err
}

// finish closes a firing: it binds the provider's outputs into the bag,
// absorbs the round, runs postprocessing on the round's final bag
// (origin.notify) into an outbox, journals the round or retires the
// instance (retireLocked), flushes the outbox once (peers co-hosted at one
// address share a single wire frame, per-destination FIFO order preserved)
// and re-checks pending clauses (loops). A non-nil err is the invocation's
// failure: the round is skipped and the instance faulted.
func (c *coordinator) finish(ctx context.Context, instanceID string, inst *coordInstance, fireSeq uint64, vars, outputs map[string]string, consumed []string, box *outbox, scratch *roundScratch, err error) {
	retired := false
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
		err = c.notify(box, c.table.Postprocessings, instanceID, vars, seq, logged)
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
			// The round is on the fd before its outbox flushes. A snapshot
			// (it bounds replay work) is written at the same boundary, so a
			// round that has one due is staged and rides it.
			if fireSeq%snapshotRounds == 0 {
				stage(j, c.host.opts.Logf, rec)
				rec = c.snapshotLocked(journal.KindSnapshot, instanceID, inst)
			}
			commit(j, c.host.opts.Logf, rec)
		}
		if scratch != nil {
			*scratch = roundScratch{} // encoded, or never to be: the worker pins no instance's bag
		}
		retired = err == nil && c.retireLocked(instanceID, inst, false)
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

	if retired {
		return // it fired its once: no clause to re-check, no object to chase
	}
	// Loops: the consumed clause may already be re-satisfiable. running
	// was false and the mutex free for the whole flush, so at the cap the
	// instance may have been passivated meanwhile: the clauses are checked
	// on whatever object the table holds NOW. Firing the orphan instead
	// would journal a round after the passivation record, un-index it, and
	// leave the instance neither in RAM nor passive.
	inst.mu.Lock()
	if inst = c.currentLocked(ctx, instanceID, inst); inst == nil {
		return // lost at the cap meanwhile, and faulted
	}
	c.maybeFireLocked(ctx, instanceID, inst)
	inst.mu.Unlock()
}

// bindInputs computes the service call parameters from the instance
// variables per the state's compiled input bindings, into params (empty).
// A binding with Var copies the variable (missing variables are an error:
// the precondition fired, so dataflow should have delivered them); a
// binding with a compiled Expr evaluates it.
func bindInputs(params map[string]string, bindings []routing.CompiledBinding, vars map[string]string, funcs expr.Env) error {
	for _, b := range bindings {
		switch {
		case b.Var != "":
			v, ok := vars[b.Var]
			if !ok {
				return fmt.Errorf("engine: input %q needs undefined variable %q", b.Param, b.Var)
			}
			params[b.Param] = v
		case b.Expr != nil:
			v, err := b.Expr.Eval(evalEnv(vars, funcs))
			if err != nil {
				return fmt.Errorf("engine: input %q: %w", b.Param, err)
			}
			params[b.Param] = v.Text()
		}
	}
	return nil
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
