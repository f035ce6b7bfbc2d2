package engine

import (
	"errors"
	"maps"

	"selfserv/internal/expr"
	"selfserv/internal/journal"
	"selfserv/internal/routing"
)

// This file is the instance kernel: the one definition of what a
// notification, a firing and a finished round do to an execution
// instance's bookkeeping. The paper defines a coordinator's whole
// behaviour by its routing table — collect notifications until a
// precondition clause is covered, invoke, run postprocessing — so there
// is one semantics, and it is written once: the live coordinator
// (host.go, firing.go), the wrapper (wrapper.go, whose finish clauses are
// preconditions that are never consumed), rehydration from a passivation
// record and crash recovery (recover.go) all drive the same marking
// through the same methods. Each journal record names the kernel call
// its commit point made, so replaying the journal IS re-running the live
// fold (docs/engine.md has the record→call table). Central deliberately
// does not use it: it is the reference the p2p outputs are checked
// against, and a reference must not share the control flow it checks.
//
// A marking has no lock of its own; it lives inside an instance
// (coordInstance, wrapperInstance) below that instance's mutex, and
// every method runs with the mutex held.

// source is one interned notification source's share of a marking.
type source struct {
	count uint32            // notifications received and not yet consumed
	ver   uint32            // bumped on every write to vars
	fired uint32            // ver when the firing in flight took its bag
	seen  uint64            // highest sequence stamp applied (dedup mark)
	vars  map[string]string // accumulated in sender FIFO order
}

// marking is the per-execution state of one coordinator or wrapper.
//
// Variables are kept LAYERED, not merged on arrival: each interned
// source accumulates its own bag, base holds everything else
// (non-interned senders, request inputs, and the results of the
// instance's own firings). Guards and bindings see the layers merged in
// the compiled canonical order (sorted source IDs) — NEVER in arrival
// order. Arrival-order merging was the seed-8 AND-join liveness bug: two
// alternative successors of one concurrent state (clauses {A,B} guarded
// "x%2=0" vs "x%2=1") could merge A's and B's bags in opposite orders
// under scheduler jitter, disagree on x, and BOTH reject — stalling the
// instance forever. With a canonical order every receiver of the same
// notifications computes the same bag, so exactly one of a set of
// complementary guards holds.
//
// Every bag has ONE owner at a time (docs/engine.md, "Who owns a bag"):
// a map that an in-flight message or journal record can still reach is
// never written. arrive, takeVars and absorb take bags over instead of
// copying them, so the comments there say who hands what to whom.
type marking struct {
	srcs    []source
	pending []uint64          // bit i set iff srcs[i].count > 0: clause coverage is a word compare
	base    map[string]string // nil until first written
	// lent marks base as the bag of a finished round (absorb): the round's
	// outbound messages and journal record may still be reading that map,
	// so it is read-only here and the next writer copies it first
	// (writeBase).
	lent   bool
	merged map[string]string // cached canonical merge; nil when stale
	// sole, set with merged, is 1 + the index of the source whose layer
	// merged IS, 0 when merged is a copy; taken is sole as of takeVars: the
	// firing in flight holds that layer, so arrive copies it first.
	sole, taken int32
	fireSeq     uint64 // firings launched so far; keys idempotent retries
	sendSeq     uint64 // outbound notifications stamped so far
	// spare is an empty map that is no part of the state: a recycled
	// instance's last base (coordinator.recycle), which arrive hands a
	// caller in exchange for the bag it adopts. Nil on a new instance.
	spare map[string]string

	// Inline backing of srcs and pending for tables of up to inlineSources
	// sources — every chain hop — so an
	// instance and its marking are one allocation. The slices point into
	// the marking itself: it is initialized in place and never copied.
	srcBuf  [inlineSources]source
	maskBuf [1]uint64
}

const inlineSources = 4

// init sizes a zero marking, in place, for a table's source universe.
func (mk *marking) init(sources, maskWords int) {
	if sources <= len(mk.srcBuf) && maskWords <= len(mk.maskBuf) {
		mk.srcs, mk.pending = mk.srcBuf[:sources], mk.maskBuf[:maskWords]
		return
	}
	mk.srcs, mk.pending = make([]source, sources), make([]uint64, maskWords)
}

// writeBase merges vars into the base layer, which is made on first use
// and copied first when it is lent.
func (mk *marking) writeBase(vars map[string]string) {
	if mk.lent || mk.base == nil {
		own := make(map[string]string, len(mk.base)+len(vars))
		maps.Copy(own, mk.base)
		mk.base, mk.lent = own, false
	}
	maps.Copy(mk.base, vars)
}

// duplicate reports whether a sequence-stamped notification from source
// idx was already applied. Recovery redelivers the journaled outbound
// messages of every restored round conservatively — a message the
// crashed process already delivered comes again, and counting it twice
// would double-arm an AND-join. Unstamped messages (seq 0: a
// journal-less sender) are never duplicates.
func (mk *marking) duplicate(idx int, seq uint64) bool {
	return seq != 0 && seq <= mk.srcs[idx].seen
}

// arrive applies one notification (journal: arrival, warrival; the
// request inputs of a wstart arrive the same way, from outside the
// universe). An interned source files the variables in its own layer and
// gains a pending count; senders outside the interned universe appear in
// no clause and can never contribute to coverage, so their variables go
// to the base layer and nothing is counted.
//
// The caller hands vars over and gets back the map it holds from then on:
// a transport handler takes the bag it was lent, and a replayed record is
// decoded for this call alone. An interned source with no layer yet ADOPTS
// vars as its layer and returns the marking's spare in exchange (nil when
// there is none), so a receive lane gets a map to decode its next bag
// into; every other arrival copies, returns vars, and the caller keeps
// it. The copy goes into the layer the marking owns, or, when the firing
// in flight holds that layer (takeVars), into a fresh copy of it: the
// firing writes its bag only at finish, so the copy is the layer as the
// firing found it, and the marking lets go of the original. A caller that
// keeps its map (RaiseEvent's payload) passes a copy. The base layer
// always copies.
func (mk *marking) arrive(idx int, interned bool, seq uint64, vars map[string]string) map[string]string {
	mk.merged = nil
	if !interned {
		if len(vars) > 0 {
			mk.writeBase(vars)
		}
		return vars
	}
	s := &mk.srcs[idx]
	s.ver++
	s.count++
	if seq > s.seen {
		s.seen = seq
	}
	mk.pending[idx>>6] |= 1 << (idx & 63)
	switch {
	case s.vars == nil && vars != nil:
		s.vars, vars, mk.spare = vars, mk.spare, nil
	case s.vars == nil:
		s.vars = map[string]string{} // an empty notification still leaves a layer for absorbed to list
	case mk.taken == int32(idx)+1:
		own := make(map[string]string, len(s.vars)+len(vars))
		maps.Copy(own, s.vars)
		maps.Copy(own, vars)
		s.vars, mk.taken = own, 0
	default:
		maps.Copy(s.vars, vars)
	}
	return vars
}

// vars returns the CANONICAL variable bag: base overlaid by the source
// bags in order (routing's MergeOrder/FinishMergeOrder). This is the
// single definition of the order-independence invariant; any change to
// merge semantics goes here, once. The result is cached until the next
// layer write and MUST NOT be mutated by callers. When one source alone
// has a non-empty layer and it holds every key of base — every chain hop,
// every branch of a fan-out, the wrapper's last notice — base overlaid by
// the layer IS the layer, and the layer itself is returned, not a copy.
func (mk *marking) vars(order []int) map[string]string {
	if mk.merged != nil {
		return mk.merged
	}
	last, layers := 0, 0
	for _, idx := range order {
		if len(mk.srcs[idx].vars) > 0 {
			last, layers = idx, layers+1
		}
	}
	if layers == 1 && holdsKeysOf(mk.srcs[last].vars, mk.base) {
		mk.merged, mk.sole = mk.srcs[last].vars, int32(last)+1
		return mk.merged
	}
	mk.merged, mk.sole = make(map[string]string, len(mk.base)+4), 0
	maps.Copy(mk.merged, mk.base)
	for _, idx := range order {
		maps.Copy(mk.merged, mk.srcs[idx].vars)
	}
	return mk.merged
}

// holdsKeysOf reports whether every key of base is a key of bag, so that
// base overlaid by bag is bag (vars, absorb).
func holdsKeysOf(bag, base map[string]string) bool {
	for k := range base {
		if _, ok := bag[k]; !ok {
			return false
		}
	}
	return true
}

// takeVars is vars with ownership transfer, for a firing with no actions
// to apply: no O(bag) copy. A merged copy's only other reference is the
// cache, dropped here. A sole layer stays its source's layer too, so it is
// noted as taken, and three events keep every observable state what a copy
// would have left: an arrival for that source copies the layer first
// (arrive), the firing writes the bag only in the critical section that
// absorbs it (coordinator.finish), and a failed firing gives the layer
// back unwritten (untake).
func (mk *marking) takeVars(order []int) map[string]string {
	bag := mk.vars(order)
	mk.merged, mk.taken = nil, mk.sole
	return bag
}

func (mk *marking) untake() { mk.taken = 0 }

// consume uses up one pending notification per source of a matched
// clause, so loops re-arm (journal: round, Consumed), and remembers each
// bag's version as the horizon of the bag the firing is about to take:
// absorbed tells data that reached the firing from data that arrived
// while the service ran.
func (mk *marking) consume(idxs []int) {
	for _, idx := range idxs {
		s := &mk.srcs[idx]
		if s.count > 0 {
			s.count--
		}
		if s.count == 0 {
			mk.pending[idx>>6] &^= 1 << (idx & 63)
		}
	}
	for i := range mk.srcs {
		mk.srcs[i].fired = mk.srcs[i].ver
	}
}

// satisfied returns the first of clauses that holds: every source has a
// pending notification (bitmask coverage) AND the receiver-side condition,
// if any, is true on the canonically merged bag — built lazily, since most
// arrivals at a wide AND-join cover nothing and an unguarded clause never
// needs it, and cached (vars). A clause whose condition is false, or
// refers to variables still missing (ErrUndefinedVar), keeps its
// notifications pending: a later one may complete the bag or cover an
// alternative clause. Any other evaluation error is returned — waiting
// cannot cure it, the instance must fault. No clause and no error means
// keep waiting; untaken then reports that a clause is covered and every
// covered one evaluated false, which for a once table is its end
// (coordinator.retireLocked).
func (mk *marking) satisfied(clauses []*routing.CompiledClause, order []int, funcs expr.Env) (_ *routing.CompiledClause, untaken bool, _ error) {
	undefined := false
	for _, clause := range clauses {
		if !clause.Covered(mk.pending) {
			continue
		}
		if clause.Condition != nil {
			ok, err := evalGuard(clause.Condition, mk.vars(order), funcs)
			if err != nil && !errors.Is(err, expr.ErrUndefinedVar) {
				return nil, false, err
			}
			if err != nil || !ok {
				untaken, undefined = true, undefined || err != nil
				continue
			}
		}
		return clause, false, nil
	}
	return nil, untaken && !undefined, nil
}

// nextFire numbers a firing (origin.notify numbers outbound notifications,
// through a pointer to sendSeq).
func (mk *marking) nextFire() uint64 {
	mk.fireSeq++
	return mk.fireSeq
}

// resume sets the sequence counters to journaled high-water marks
// (journal: round, snapshot, passivate). Absolute, not re-counted: a
// firing that faulted advanced the counters without leaving a round
// record, so a re-count would resume below numbers already used and
// receivers would drop the fresh notifications as duplicates.
func (mk *marking) resume(fireSeq, sendSeq uint64) {
	mk.fireSeq, mk.sendSeq = fireSeq, sendSeq
}

// absorbed appends to dst the sources whose bags the finished firing
// fully absorbed: unchanged since consume, so their contents already
// reached the firing's bag through the canonical merge. A bag written
// DURING the firing is not listed; it keeps its contents and still
// overrides base, so a loop's fresh notification beats the now-older
// results.
func (mk *marking) absorbed(dst []int) []int {
	for i := range mk.srcs {
		if s := &mk.srcs[i]; s.vars != nil && s.ver == s.fired {
			dst = append(dst, i)
		}
	}
	return dst
}

// absorb folds a finished round into the marking (journal: round,
// Cleared + Vars): the firing's results (clause actions + service
// outputs) join the BASE layer, and the absorbed source bags are cleared
// — stale source data must not shadow the fresher results in later
// evaluations.
//
// The firing's bag began as base overlaid by the layers, so as a rule it
// still holds every key of base, and base overlaid by it IS it: the
// marking then takes vars over as its base, lent, instead of copying it
// key by key. The check is structural, not a version counter, because
// Recover replays an arrival journaled between consume and this round
// BEFORE the round, and has to reach the state the live fold reached: a
// non-interned arrival that put a new key into base mid-firing fails the
// check in both orders and is merged the old way.
// A layer the firing still holds as taken is among cleared — nothing
// arrived for its source — so from here on it is the base, not a layer.
func (mk *marking) absorb(vars map[string]string, cleared []int) {
	for _, idx := range cleared {
		mk.srcs[idx].vars = nil
	}
	mk.merged, mk.taken = nil, 0
	if !holdsKeysOf(vars, mk.base) {
		mk.writeBase(vars)
		return
	}
	mk.base, mk.lent = vars, true
}

// snapshot writes the whole marking into r (journal: snapshot,
// passivate): one SourceState per source that has a pending count, a
// dedup mark or a non-empty bag, keyed by source NAME so a restart that
// recompiles the plan (possibly interning in a different order) can
// still map it back. The record SHARES the live maps, lent base included:
// it reads them under the caller's instance lock and the journal encodes
// before that lock is released, so no writer can be among them. A caller
// that owns scratch for r.Sources sets it (empty) beforehand.
func (mk *marking) snapshot(r *journal.Record, name func(int) string) {
	for i := range mk.srcs {
		s := &mk.srcs[i]
		if s.count == 0 && s.seen == 0 && len(s.vars) == 0 {
			continue
		}
		if r.Sources == nil {
			r.Sources = make([]journal.SourceState, 0, len(mk.srcs)-i)
		}
		r.Sources = append(r.Sources, journal.SourceState{Name: name(i), Count: s.count, Seen: s.seen, Vars: s.vars})
	}
	r.Vars = mk.base
	r.FireSeq, r.SendSeq = mk.fireSeq, mk.sendSeq
}

// restore loads a snapshot/passivation record into a fresh marking.
// Sources that are no longer interned — plan drift across a restart —
// fold their bags into the base layer, which at worst re-delivers their
// variables out of canonical order but never loses data.
func (mk *marking) restore(r *journal.Record, index func(string) (int, bool)) {
	mk.arrive(0, false, 0, r.Vars)
	for i := range r.Sources {
		st := &r.Sources[i]
		idx, ok := index(st.Name)
		if !ok {
			mk.arrive(0, false, 0, st.Vars)
			continue
		}
		s := &mk.srcs[idx]
		if st.Count > 0 {
			s.count = st.Count
			mk.pending[idx>>6] |= 1 << (idx & 63)
		}
		if len(st.Vars) > 0 {
			s.vars = maps.Clone(st.Vars)
			s.ver++
		}
		s.seen = st.Seen
	}
	mk.resume(r.FireSeq, r.SendSeq)
	mk.merged = nil
}

// newRecord starts the journal record of one commit point; the caller
// fills in the fields of its kind. Wrapper-side kinds have no state.
func newRecord(kind, composite, state, instance string, version uint64) *journal.Record {
	return &journal.Record{
		Kind:      kind,
		Composite: composite,
		State:     state,
		Instance:  instance,
		Version:   version,
	}
}

// commit appends r at a write-ahead commit point: the record is on the
// fd before the effect that waits for it — a provider call, a send, a
// reply to the client — leaves the host (docs/durability.md states the
// invariant and which record guards which effect). A failed append
// degrades durability, never liveness — callers still apply the effect
// (only the wrapper's start, which has a client to tell, gives up) — so
// the failure is reported through logf (nil: dropped, the wrapper has no
// log) as well as returned.
func commit(j *journal.Journal, logf func(format string, args ...any), r *journal.Record) error {
	return reportUnwritten(logf, r, j.Append(r))
}

// stage hands the journal a record no effect waits for (journal.Stage):
// it is in file order now and reaches the fd with its shard's next
// commit, in the same write. Three records are staged, and commit's
// other callers are the write-through ones: an invoke record (rides its
// round), a round whose periodic snapshot is due (rides the snapshot)
// and an evicted instance's passivation record (rides whatever its shard
// commits next). A failure is reported as commit's is.
func stage(j *journal.Journal, logf func(format string, args ...any), r *journal.Record) error {
	return reportUnwritten(logf, r, j.Stage(r))
}

func reportUnwritten(logf func(format string, args ...any), r *journal.Record, err error) error {
	if err != nil && logf != nil {
		logf("journal: %s record of %s/%s instance %s not written: %v", r.Kind, r.Composite, r.State, r.Instance, err)
	}
	return err
}
