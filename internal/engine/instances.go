package engine

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"selfserv/internal/journal"
)

// This file is everything that touches an instance table and the
// journal's passive verbs: the lock-striped table behind the engine's
// concurrent-execution scaling (docs/engine.md) and, below it, what a
// coordinator does with one — create at the cap, evict or passivate,
// rehydrate, chase the current object. The table splits a map by
// instance-ID hash: instances in different shards never touch the same
// mutex, and the shard mutex guards only the map shape (lookup, insert,
// evict). An instance's own state is under its own mutex
// (coordInstance.mu, wrapperInstance.mu), so even same-shard instances
// contend only for the nanoseconds of a map read — the guard-eval/
// bag-merge critical section is per-instance.
//
// Lock order: the eviction-race re-check loop (coordinator
// onNotification) holds an instance mutex while re-reading the shard
// map, and retireLocked while leaving it, so instance-before-shard is the
// one nesting that BLOCKS. The only path needing the opposite nesting —
// getOrCreate's onEvict hook inspecting an eviction candidate under the
// shard mutex — must therefore TryLock the candidate's instance mutex and
// veto on failure; it may never block on it. No code path holds two shard
// mutexes or two instance mutexes at once.

// instShardCount stripes every per-instance table. 32 shards keep the
// collision probability negligible for realistic in-flight counts while
// costing ~1.5 KiB per coordinator; must be a power of two.
const instShardCount = 32

// instShardIdx hashes an instance ID onto its stripe (FNV-1a, masked).
// Instance IDs are short ("i421"), so the byte loop beats importing
// hash/fnv and its interface indirection.
func instShardIdx(id string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return h & (instShardCount - 1)
}

// tableShard is one stripe: a map plus, for capped tables, the
// insertion order used for FIFO eviction — a ring (push, pop): a table at
// its cap, where every create evicts, recycles the same slots. It holds
// the map's keys exactly: evict and retire take an ID out of both.
type tableShard[V any] struct {
	mu      sync.Mutex // lockorder:shard — level 1, acquired before any instance mutex
	m       map[string]V
	order   []string // len is zero or a power of two
	head, n int      // index of the oldest entry; entries in the ring
	// evict is handed to onEvict, which runs under mu — one eviction at a
	// time per stripe — and so may build the victim's passivation record
	// over it instead of on the heap. Made on the stripe's first eviction.
	evict *evictScratch
	// lost holds the IDs of the stripe's latest instances evicted with
	// their state lost; nil until the first. getOrCreate refuses them.
	lost *lostRing
	// free holds nfree values retired from the stripe and recycled, for
	// getOrCreate to hand its constructor (coordinator.recycle).
	free  [freeLen]V
	nfree int
}

// freeLen is how many recycled instances a stripe keeps. An instance is
// recycled into the stripe it was created in, so a stripe needs one per
// execution it has in flight at once; a fuller list drops the rest.
const freeLen = 2

// lostRingLen is how many lost instance IDs a stripe remembers: late
// frames for one arrive within the lag of a receive lane, and the
// stripe sees a few creates in that time, not hundreds.
const lostRingLen = 16

// lostRing is a stripe's memory of lost instance IDs, oldest overwritten.
type lostRing struct {
	ids  [lostRingLen]string
	next int
}

func (r *lostRing) add(id string) {
	r.ids[r.next] = id
	r.next = (r.next + 1) % lostRingLen
}

// has reports whether id was lost lately; a nil ring has nothing.
func (r *lostRing) has(id string) bool {
	return r != nil && slices.Contains(r.ids[:], id)
}

// evictVerdict is onEvict's answer on an eviction candidate.
type evictVerdict int

const (
	evictVeto evictVerdict = iota // the candidate stays; the scan moves on
	evictKept                     // it leaves the table with its state kept (passivated)
	evictLost                     // it leaves the table with its state lost
)

// push adds id at the back of the stripe's eviction order. Caller holds mu.
func (s *tableShard[V]) push(id string) {
	if s.n == len(s.order) {
		grown := make([]string, max(8, 2*len(s.order))) // full: oldest first is order[head:], order[:head]
		copy(grown[copy(grown, s.order[s.head:]):], s.order[:s.head])
		s.order, s.head = grown, 0
	}
	s.order[(s.head+s.n)&(len(s.order)-1)] = id
	s.n++
}

// pop removes and returns the oldest entry. Caller holds mu; n > 0.
func (s *tableShard[V]) pop() string {
	id := s.order[s.head]
	s.order[s.head] = ""
	s.head = (s.head + 1) & (len(s.order) - 1)
	s.n--
	return id
}

// shardedTable is a string-keyed map striped across instShardCount
// mutexes. The zero value is ready to use. count tracks the total
// population across shards (maintained by getOrCreate's create/evict and
// by retire — the capped-table path); insert/remove users don't need it.
type shardedTable[V any] struct {
	shards [instShardCount]tableShard[V]
	count  atomic.Int64
}

// get returns the value for id, if present.
func (t *shardedTable[V]) get(id string) (V, bool) {
	s := &t.shards[instShardIdx(id)]
	s.mu.Lock()
	v, ok := s.m[id]
	s.mu.Unlock()
	return v, ok
}

// insert adds id→v and reports whether it was absent; an existing entry
// is left untouched (the caller's duplicate-ID check). A counted entry
// joins the shard's eviction order and the global population count,
// exactly as if getOrCreate had built it: crash recovery re-seats
// restored instances that way, so they stay subject to the same cap (and
// passivation) as instances created by live traffic.
func (t *shardedTable[V]) insert(id string, v V, counted bool) bool {
	s := &t.shards[instShardIdx(id)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.m[id]; dup {
		return false
	}
	if s.m == nil {
		s.m = map[string]V{}
	}
	s.m[id] = v
	if counted {
		s.push(id)
		t.count.Add(1)
	}
	return true
}

// take removes and returns the value for id in one critical section, so
// two racing takers can never both claim it (Central's reply routing
// relies on this: a duplicate TypeResult must find nothing).
func (t *shardedTable[V]) take(id string) (V, bool) {
	s := &t.shards[instShardIdx(id)]
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[id]
	if ok {
		delete(s.m, id)
	}
	return v, ok
}

// remove deletes id (a no-op when absent).
func (t *shardedTable[V]) remove(id string) {
	s := &t.shards[instShardIdx(id)]
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
}

// retire removes id — seated, since its owner still has it running and
// onEvict vetoes that — from the map, the count and the eviction order,
// searched newest first (a retiring instance is among the last created).
// No tombstone stays: the ring is no longer than the instances seated.
func (t *shardedTable[V]) retire(id string) {
	s := &t.shards[instShardIdx(id)]
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, id)
	t.count.Add(-1)
	at := func(k int) *string { return &s.order[(s.head+k)&(len(s.order)-1)] }
	for k := s.n - 1; k >= 0; k-- {
		if *at(k) == id {
			for ; k < s.n-1; k++ {
				*at(k) = *at(k + 1)
			}
			*at(k), s.n = "", s.n-1
			return
		}
	}
}

// recycle puts v, which retire took out of id's stripe and nobody uses
// any more, on the stripe's free list; a full list drops it.
func (t *shardedTable[V]) recycle(id string, v V) {
	s := &t.shards[instShardIdx(id)]
	s.mu.Lock()
	if s.nfree < len(s.free) {
		s.free[s.nfree] = v
		s.nfree++
	}
	s.mu.Unlock()
}

// forEach calls fn on every live entry, one shard at a time. fn runs
// under the shard mutex: it must stay short, must not touch the table,
// and may take at most the entry's own instance mutex (shard before
// instance is the documented lock order).
func (t *shardedTable[V]) forEach(fn func(id string, v V)) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for id, v := range s.m {
			fn(id, v)
		}
		s.mu.Unlock()
	}
}

// getOrCreate returns the value for id, building it with mk on first
// use — mk gets a recycled value off the stripe's free list to renew, or
// the zero V when the list is empty — and ok; ok is false — and nothing
// is built — when id is one the stripe lost lately (lostRing): a late
// frame for it is refused, not turned into a fresh instance that waits
// for sources already spent.
// max bounds the TOTAL population across all shards (the atomic
// count): while it is exceeded, the oldest evictable entry of the new
// entry's shard is evicted (FIFO). A victim lost with its state is
// returned as lost, for the caller to fault once the shard lock is
// released. Gating eviction on the global count —
// not the shard's — means a small cap with few live instances never
// evicts one of them just because two IDs hashed to the same shard; only
// when the table as a whole is over budget does the valve open, matching
// the pre-striping single map. Eviction is a safety valve against leaked
// bookkeeping, not a precise LRU (it scans the current shard's oldest,
// not the global oldest).
//
// onEvict, when non-nil, is consulted under the shard mutex before each
// candidate leaves the table (nil lets each go as evictKept); evictVeto
// keeps THAT candidate and the scan moves to the next-oldest (bounded by
// evictScanLimit, so a shard full of vetoes cannot turn creation into a
// linear walk). The hook is where the owner journals the victim
// (passivation, built in the stripe's scratch) or counts the loss loudly
// (Host.Evicted). It runs under the shard mutex, so it must TryLock —
// never Lock — the candidate's instance mutex (see the lock-order note at
// the top of this file) and veto when the try fails.
func (t *shardedTable[V]) getOrCreate(id string, max int, mk func(recycled V) V, onEvict func(id string, v V, scratch *evictScratch) evictVerdict) (v V, lost string, ok bool) {
	s := &t.shards[instShardIdx(id)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.m[id]; ok {
		return v, "", true
	}
	if s.lost.has(id) {
		return v, "", false
	}
	if s.m == nil {
		s.m = map[string]V{}
	}
	if s.nfree > 0 {
		s.nfree--
		v, s.free[s.nfree] = s.free[s.nfree], v // v is the zero V here
	}
	v = mk(v)
	s.m[id] = v
	s.push(id)
	if max > 0 && t.count.Add(1) > int64(max) && s.n > 1 {
		for scanned := 0; s.n > 1 && scanned < evictScanLimit; scanned++ {
			victim := s.order[s.head]
			verdict := evictKept
			if onEvict != nil {
				if s.evict == nil {
					s.evict = new(evictScratch)
				}
				verdict = onEvict(victim, s.m[victim], s.evict) // seated: the order holds no tombstone
			}
			if verdict == evictVeto {
				// Vetoed (e.g. an invocation is in flight): rotate the
				// candidate to the back so the next over-cap create
				// doesn't re-scan it first.
				s.push(s.pop())
				continue
			}
			s.pop()
			delete(s.m, victim)
			t.count.Add(-1)
			if verdict == evictLost {
				if s.lost == nil {
					s.lost = new(lostRing)
				}
				s.lost.add(victim)
				lost = victim
			}
			break
		}
	}
	return v, lost, true
}

// evictScanLimit bounds how many veto'd candidates one over-cap create
// will step over before giving up for this round (the table runs over
// budget until a later create finds an evictable entry).
const evictScanLimit = 8

// instance returns the coordinator's object for id, created on first
// use, or nil when id was lost at the cap: the frame is refused and
// counted (Host.Refused). A create that evicted an instance with its
// state lost faults that instance's execution (ErrInstanceLost) here,
// once the shard lock is released — onEvict, under it, only TryLocks.
// Caller holds no instance mutex.
func (c *coordinator) instance(ctx context.Context, id string) *coordInstance {
	inst, lost, ok := c.instances.getOrCreate(id, c.host.opts.MaxInstancesPerState, c.renew, c.onEvict)
	if lost != "" {
		c.sendFault(ctx, lost, ErrInstanceLost)
	}
	if !ok {
		c.host.refused.Add(1)
		c.host.logf("coord %s/%s: refused a late frame for %s, lost at the cap", c.composite, c.table.State, id)
		return nil
	}
	return inst
}

// evictScratch backs the Sources of the passivation record an eviction
// builds, for tables of up to inlineSources sources (the record itself
// is a stack value; what it points at cannot be — see roundScratch). It
// belongs to the table stripe under whose mutex onEvict runs (above),
// so an eviction allocates nothing, and onEvict zeroes it once the
// journal has encoded the record, so a stripe pins no evicted instance's
// bags.
type evictScratch struct {
	sources [inlineSources]journal.SourceState
}

// onEvict is consulted by the instance table when a cap-hit create
// needs room: it runs under the shard mutex, so it may only TryLock the
// victim (see the lock-order note above). A victim with an invocation
// in flight — or one whose mutex is busy — is vetoed. Otherwise, with a
// journal configured, the victim's full state is serialized as a
// passivation record (rehydrated transparently by its next frame); with
// no journal, the state is LOST, counted, logged loudly, and its
// execution faulted (instance) — an instance of a once table that fired
// or was left untaken is no victim: retireLocked took it out.
//
// The passivation record is STAGED: no effect waits for it, so it rides
// the next commit of its journal shard instead of costing a write of its
// own. The instance is passive from this moment all the same (the
// journal answers TakePassive from what is staged), and a kill before
// that commit loses a recovery shortcut and nothing else — the arrival
// and round records the snapshot summarizes were written through, so
// Recover rebuilds the instance from them.
func (c *coordinator) onEvict(id string, inst *coordInstance, scratch *evictScratch) evictVerdict {
	if !inst.mu.TryLock() {
		return evictVeto
	}
	defer inst.mu.Unlock()
	if inst.running {
		return evictVeto
	}
	// A freshly created object whose first notification has not yet been
	// applied (or whose passive state has not been read back) must not be
	// selected: passivating it would append an EMPTY snapshot that
	// shadows the instance's real record in the journal's passive index,
	// losing every arrival it had accumulated; losing it would fault an
	// execution that lost nothing, and refuse the very frame that made
	// it. The creator is about to lock it anyway; veto and let the scan
	// pick an older entry.
	if !inst.hydrated {
		return evictVeto
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
			return evictKept
		}
		c.host.logf("coord %s/%s: falling back to LOSSY eviction of %s", c.composite, c.table.State, id)
	}
	c.host.evicted.Add(1)
	if logf := c.host.opts.Logf; logf != nil {
		logf("coord %s/%s: EVICTED live instance %s at cap %d — its state is lost and its execution faulted",
			c.composite, c.table.State, id, c.host.opts.MaxInstancesPerState)
	}
	return evictLost
}

// retireLocked takes an instance out of a once table (routing.Table.Once)
// on a host with no journal when the plan proves it finished
// (docs/engine.md, "Instance lifecycle"): finish has absorbed its round
// with nothing pending, or — untaken — a covered clause is false and, by
// rule 4, every other source excluded. Caller holds inst.mu on the seated
// object (running, or chased by currentLocked), which onEvict cannot take.
func (c *coordinator) retireLocked(id string, inst *coordInstance, untaken bool) bool {
	if !c.table.Once || c.host.opts.Journal != nil ||
		!untaken && slices.ContainsFunc(inst.mk.pending, func(w uint64) bool { return w != 0 }) { // armed again: a duplicate
		return false
	}
	c.instances.retire(id)
	c.host.retired.Add(1)
	return true
}

// recycle, once the round's outbox is flushed — with no journal, the last
// reader of inst's maps — makes inst, which finish retired, a new instance
// whose spare is its cleared base (marking.arrive), and hands it to its
// stripe for a later create (renew). A lane that found inst before the
// retire holds inst.mu while it waits for the stripe (currentLocked), so
// the renewal is done here, under inst.mu alone.
func (c *coordinator) recycle(id string, inst *coordInstance) {
	inst.mu.Lock()
	spare := inst.mk.spare
	if inst.mk.base != nil {
		spare = inst.mk.base
	}
	clear(spare)
	inst.mk = marking{spare: spare}
	inst.mk.init(c.table.NumSources(), c.table.MaskWords())
	inst.running, inst.hydrated = false, false
	inst.mu.Unlock()
	c.instances.recycle(id, inst)
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
	if c.host.opts.Journal == nil {
		return
	}
	r, ok, err := c.host.opts.Journal.TakePassive(c.composite, c.table.State, c.version, instanceID)
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
// inst.mu and trades it for the returned instance's; nil, with no mutex
// held, means id was lost at the cap meanwhile (instance). Between a table
// lookup and taking inst.mu, an over-cap create in this shard may have
// evicted inst, and a later notification may already have re-created
// the ID: membership is re-checked under the lock and the current
// pointer chased, so one instance's notifications and clause checks can
// never split across an orphaned object and its fresh twin (the
// single-mutex design excluded this by construction; eviction of a live
// instance without a journal still loses its state, as documented, but
// it must lose it to ONE object).
func (c *coordinator) currentLocked(ctx context.Context, id string, inst *coordInstance) *coordInstance {
	for {
		cur, ok := c.instances.get(id)
		if ok && cur == inst {
			break
		}
		inst.mu.Unlock()
		if inst = c.instance(ctx, id); inst == nil {
			return nil
		}
		inst.mu.Lock()
	}
	// A fresh in-RAM object may be the reincarnation of a passivated
	// instance: restore it from the journal before anything is applied.
	c.rehydrateLocked(id, inst)
	return inst
}
