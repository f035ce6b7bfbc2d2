package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"selfserv/internal/journal"
	"selfserv/internal/message"
	"selfserv/internal/service"
)

// This file implements crash recovery: rebuilding the in-flight
// instances a dead process left in its journal and driving them to
// completion (docs/durability.md). The contract is exactly-once at the
// provider boundary and at-least-once on the wire:
//
//   - Every invocation that COMPLETED before the crash is primed back
//     into the provider's service.Idempotent cache under its original
//     key, so a re-fired round replays the cached response instead of
//     executing the operation again.
//   - Every outbound message of a journaled round is REDELIVERED —
//     conservatively, because the journal cannot know which sends
//     reached the wire before the crash — and the receivers'
//     per-source sequence marks (the kernel's source.seen) drop the ones
//     the first life already applied.
//
// Recovery runs after the restarted fleet has re-installed its routing
// tables and re-registered its providers: replayed records whose
// (composite, state, version) has no coordinator are counted as skipped
// rather than failing the whole replay, so a partial redeploy degrades
// visibly instead of fatally. Addresses are NOT taken from the journal —
// a restarted fleet listens somewhere new — every redelivery re-resolves
// its logical peer through the live directory.

// RecoveryStats summarizes one journal replay.
type RecoveryStats struct {
	// Coordinators is the number of live coordinator instances rebuilt
	// into RAM (and re-checked for satisfiable clauses).
	Coordinators int
	// Wrappers is the number of wrapper executions rebuilt; unfinished
	// ones had their start phase re-sent and run to completion.
	Wrappers int
	// Passive is the number of instances left passivated on disk (their
	// next frame rehydrates them; recovery does not touch them).
	Passive int
	// Finished is the number of journaled executions that had already
	// completed (wrapper done records) and were not rebuilt.
	Finished int
	// Redelivered is the number of outbound messages re-sent from
	// journaled rounds and start phases.
	Redelivered int
	// Primed is the number of completed invocation outcomes seeded into
	// idempotency caches.
	Primed int
	// Skipped is the number of journal records that had no installed
	// coordinator or wrapper to replay into (plan not redeployed, or
	// redeployed under a different version).
	Skipped int
}

func (s RecoveryStats) String() string {
	return fmt.Sprintf("coords=%d wrappers=%d passive=%d finished=%d redelivered=%d primed=%d skipped=%d",
		s.Coordinators, s.Wrappers, s.Passive, s.Finished, s.Redelivered, s.Primed, s.Skipped)
}

// replayedCoord accumulates one coordinator instance's journaled life.
type replayedCoord struct {
	c       *coordinator
	id      string
	inst    *coordInstance
	msgs    []journal.OutMsg // outbound messages owed redelivery
	invokes []*journal.Record
	passive bool // last effective record was a passivation
}

// replayedWrap accumulates one wrapper execution's journaled life. inst
// stays nil when the start was never journaled: the client never got
// past ExecuteInstance's commit point, so there is nothing to finish.
type replayedWrap struct {
	w      *Wrapper
	id     string
	inst   *wrapperInstance
	inputs map[string]string
	done   bool
}

// Recover replays j into the given hosts and wrappers. It must run
// after tables are installed and providers registered, and before (or
// concurrently with — the engine's locking covers it) new traffic.
//
// The replay keeps no bookkeeping of its own: each record is mapped to
// the kernel call its live commit point made (kernel.go), on an
// instance built by the same constructor live traffic uses, so the
// state recovery seats is the state the crashed process had by
// construction. The replay instances are process-private until they are
// seated, but the guarded-field contract is machine-checked
// (selfservvet guardedby): each record is applied under the uncontended
// instance lock, exactly as live commit points do.
func Recover(ctx context.Context, j *journal.Journal, hosts []*Host, wrappers []*Wrapper) (RecoveryStats, error) {
	var stats RecoveryStats
	// One journaled life: of a coordinator instance, or (state "") of a
	// wrapper execution.
	type instanceKey struct {
		coordKey
		instance string
	}
	coords := map[instanceKey]*replayedCoord{}
	wraps := map[instanceKey]*replayedWrap{}

	findCoord := func(composite, state string, version uint64) *coordinator {
		for _, h := range hosts {
			if c := h.coordinatorFor(composite, state, version); c != nil {
				return c
			}
		}
		return nil
	}
	findWrap := func(composite string, version uint64) *Wrapper {
		for _, w := range wrappers {
			if w.composite == composite && w.version == version {
				return w
			}
		}
		return nil
	}

	err := j.Replay(func(r *journal.Record) error {
		key := instanceKey{coordKey{r.Composite, r.State, r.Version}, r.Instance}
		switch r.Kind {
		case journal.KindWStart, journal.KindWArrival, journal.KindWDone:
			rw := wraps[key]
			if rw == nil {
				w := findWrap(r.Composite, r.Version)
				if w == nil {
					stats.Skipped++
					return nil
				}
				rw = &replayedWrap{w: w, id: r.Instance}
				wraps[key] = rw
			}
			switch r.Kind {
			case journal.KindWStart:
				rw.inst, rw.inputs = rw.w.newInstance(r.Vars), r.Vars
			case journal.KindWArrival:
				if inst := rw.inst; inst != nil {
					inst.mu.Lock()
					if !inst.finished {
						rw.w.noticeLocked(inst, r.Src, r.Seq, r.Vars, r.Error)
					}
					inst.mu.Unlock()
				}
			case journal.KindWDone:
				rw.done = true
			}
			return nil
		}

		rc := coords[key]
		if rc == nil {
			c := findCoord(r.Composite, r.State, r.Version)
			if c == nil {
				stats.Skipped++
				return nil
			}
			rc = &replayedCoord{c: c, id: r.Instance, inst: c.newInstance(true)}
			coords[key] = rc
		}
		c := rc.c
		switch r.Kind {
		case journal.KindArrival:
			rc.passive = false
			idx, interned := c.table.SourceIndex(r.Src)
			rc.inst.mu.Lock()
			rc.inst.mk.arrive(idx, interned, r.Seq, r.Vars)
			rc.inst.mu.Unlock()
		case journal.KindInvoke:
			rc.invokes = append(rc.invokes, r)
		case journal.KindRound:
			// The round exactly as maybeFireLocked and finish committed it;
			// its sends are owed redelivery.
			rc.passive = false
			rc.inst.mu.Lock()
			rc.inst.mk.consume(c.sourceIndexes(r.Consumed))
			rc.inst.mk.absorb(r.Vars, c.sourceIndexes(r.Cleared))
			rc.inst.mk.resume(r.FireSeq, r.SendSeq)
			rc.inst.mu.Unlock()
			rc.msgs = append(rc.msgs, r.Msgs...)
		case journal.KindSnapshot, journal.KindPassivate:
			// A snapshot/passivation record carries the WHOLE state: start
			// over from it. Accumulated sends survive a snapshot (the
			// snapshot lands in the same critical section as its round, so
			// that round's messages may still be unflushed) but not a
			// passivation (an idle instance has flushed everything).
			rc.inst = c.newInstance(true)
			rc.inst.mu.Lock()
			rc.inst.mk.restore(r, c.table.SourceIndex)
			rc.inst.mu.Unlock()
			rc.passive = r.Kind == journal.KindPassivate
			if rc.passive {
				rc.msgs = nil
			}
		}
		return nil
	})
	if err != nil {
		return stats, fmt.Errorf("engine: recovery replay: %w", err)
	}

	// Prime completed invocation outcomes into the providers' idempotency
	// caches BEFORE anything can re-fire.
	registries := map[*service.Registry]bool{}
	for _, h := range hosts {
		registries[h.registry] = true
	}
	for _, rc := range coords {
		for _, inv := range rc.invokes {
			if primeInvoke(registries, inv) {
				stats.Primed++
			}
		}
	}

	// Seat the rebuilt instances. No sends yet: every instance (and the
	// wrapper of every execution) must be reachable before the first
	// redelivered frame can land.
	var live []*replayedCoord
	for _, rc := range coords {
		if rc.passive {
			stats.Passive++
			continue
		}
		if rc.c.instances.insert(rc.id, rc.inst, true) {
			live = append(live, rc)
			stats.Coordinators++
		}
	}
	var restored []*replayedWrap
	for _, rw := range wraps {
		// Finished or not, the ID names coordinator instances the replay
		// rebuilt: a fresh Execute must never be handed it again.
		rw.w.reserveID(rw.id)
		if rw.done {
			stats.Finished++
			continue
		}
		if rw.inst == nil {
			stats.Skipped++
			continue
		}
		if rw.w.restoreInstance(rw) {
			restored = append(restored, rw)
			stats.Wrappers++
		}
	}

	// Redeliver. Every address is re-resolved through the live directory;
	// receivers dedup by (source, sequence). The Sender keeps no message
	// past its Send, so one serves them all.
	var m message.Message
	for _, rc := range live {
		c := rc.c
		for _, om := range rc.msgs {
			addr, err := c.route(om.To, rc.id, om.Vars[TenantVar])
			if err != nil {
				c.host.logf("recover %s/%s: instance %s: %v", c.composite, c.table.State, rc.id, err)
				continue
			}
			// The message as notify built it: the type it rebuilds from the
			// two ends is the om.Type the record keeps.
			c.message(&m, rc.id, om.To, om.Seq, om.Vars)
			if err := c.host.sender.Send(ctx, addr, &m); err != nil {
				c.host.logf("recover %s/%s: redelivery to %s failed: %v", c.composite, c.table.State, om.To, err)
				continue
			}
			stats.Redelivered++
		}
	}
	for _, rw := range restored {
		n, err := rw.w.resendStart(ctx, rw.id, rw.inputs)
		if err != nil {
			return stats, fmt.Errorf("engine: recovery restart of %s instance %s: %w", rw.w.composite, rw.id, err)
		}
		stats.Redelivered += n
	}

	// Finally, re-check every live instance's clauses: an instance whose
	// AND-join was already satisfied at crash time (arrivals journaled,
	// fire never finished) gets no new frame to wake it — this kick
	// re-fires it, and the primed idempotency keys make the re-fire
	// replay any invocation that had already completed.
	for _, rc := range live {
		rc.inst.mu.Lock()
		rc.c.maybeFireLocked(ctx, rc.id, rc.inst)
		rc.inst.mu.Unlock()
	}
	return stats, nil
}

// sourceIndexes maps journaled source names back to the table's
// interning; names a recompiled plan no longer interns are dropped.
func (c *coordinator) sourceIndexes(names []string) []int {
	idxs := make([]int, 0, len(names))
	for _, name := range names {
		if idx, ok := c.table.SourceIndex(name); ok {
			idxs = append(idxs, idx)
		}
	}
	return idxs
}

// primeInvoke seeds one journaled invocation outcome into the
// service.Idempotent wrapper of its provider, wherever it sits in the
// provider's decorator chain, under the key its firing presented
// (coordinator.request), rebuilt from the record's own fields: the text
// an older record holds in Key names the same four. Reports whether a
// cache was found.
func primeInvoke(registries map[*service.Registry]bool, r *journal.Record) bool {
	key := service.Key{Composite: r.Composite, Instance: r.Instance, State: r.State, Seq: r.FireSeq}
	primed := false
	for reg := range registries {
		prov, err := reg.Lookup(r.Service)
		if err != nil {
			continue
		}
		for prov != nil {
			if idem, ok := prov.(*service.Idempotent); ok {
				idem.Prime(key, service.Response{Outputs: r.Outputs})
				primed = true
				break
			}
			u, ok := prov.(interface{ Unwrap() service.Provider })
			if !ok {
				break
			}
			prov = u.Unwrap()
		}
	}
	return primed
}

// restoreInstance seats one crashed execution, rebuilt by the replay,
// inside the wrapper: the instance joins the table and the in-flight
// gauge, and a finalizer goroutine is attached so the execution
// completes (journaled done record, gauge release) even if nobody calls
// WaitRecovered. Reports false for a duplicate ID.
func (w *Wrapper) restoreInstance(rw *replayedWrap) bool {
	inst := rw.inst
	if !w.instances.insert(rw.id, inst, false) {
		return false
	}
	// Draining: the restored instance can still complete (the endpoint
	// is open), it just isn't tracked by the gauge.
	tracked := w.beginInstance() == nil
	go func() {
		<-inst.done
		inst.mu.Lock()
		err := inst.err
		inst.mu.Unlock()
		w.journalDone(rw.id, err)
		if tracked {
			w.endInstance()
		}
	}()
	return true
}

// reserveID pushes Execute's allocator past id if it is one of its
// "i<n>" IDs, so a fresh execution never reuses it and lands on the
// replayed instances of that ID.
func (w *Wrapper) reserveID(id string) {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "i"), 10, 64)
	for err == nil {
		cur := w.seq.Load()
		if cur >= n || w.seq.CompareAndSwap(cur, n) {
			return
		}
	}
}

// resendStart re-runs the start phase of a recovered execution. The
// stamps are deterministic (startPhase), so receivers that saw the
// first life's start frames drop the duplicates. Returns the number of
// messages sent.
func (w *Wrapper) resendStart(ctx context.Context, id string, inputs map[string]string) (int, error) {
	box, err := w.startPhase(id, inputs)
	if err != nil {
		return 0, err
	}
	defer box.release()
	if err := box.flush(ctx, w.sender); err != nil {
		return 0, err
	}
	return box.msgs(), nil
}

// Recovered lists the IDs of instances currently in the wrapper's table
// — after a Recover, the rebuilt executions a caller can WaitRecovered
// on.
func (w *Wrapper) Recovered() []string {
	var ids []string
	w.instances.forEach(func(id string, _ *wrapperInstance) {
		ids = append(ids, id)
	})
	return ids
}

// WaitRecovered blocks until a recovery-restored instance terminates
// and returns its projected outputs — completing, on behalf of the new
// process, the Execute call the crash interrupted. The instance stays
// in the table (the attached finalizer owns the gauge), so concurrent
// waiters all get the result.
func (w *Wrapper) WaitRecovered(ctx context.Context, id string) (map[string]string, error) {
	inst, ok := w.instances.get(id)
	if !ok {
		return nil, fmt.Errorf("engine: composite %q: no recovered instance %q", w.composite, id)
	}
	select {
	case <-inst.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("engine: composite %q instance %s: %w", w.composite, id, ctx.Err())
	}
	return w.outcome(inst)
}
