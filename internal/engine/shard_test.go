package engine

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// sameStripeIDs returns n distinct instance IDs that all hash onto one
// stripe, so a test can reason about that stripe's eviction order.
func sameStripeIDs(n int) []string {
	var ids []string
	for i := 0; len(ids) < n; i++ {
		if id := "i" + strconv.Itoa(i); instShardIdx(id) == 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestStripeEvictsInInsertionOrder holds the ring to what the slice did:
// the oldest evictable entry goes first, a vetoed candidate moves to the
// back (and is asked again only after everything that was behind it), an
// entry that retired from the middle of the ring is never asked about —
// across the ring's growth and its wrap-around.
func TestStripeEvictsInInsertionOrder(t *testing.T) {
	ids := sameStripeIDs(40)
	var table shardedTable[*int]
	var evicted, asked []string
	veto := map[string]bool{}
	onEvict := func(id string, _ *int, _ *evictScratch) evictVerdict {
		asked = append(asked, id)
		if veto[id] {
			return evictVeto
		}
		evicted = append(evicted, id)
		return evictKept
	}
	create := func(id string, max int) {
		table.getOrCreate(id, max, func(*int) *int { return new(int) }, onEvict)
	}

	// Twelve entries under a cap nobody hits: the ring grows once (8 → 16).
	for _, id := range ids[:12] {
		create(id, 100)
	}
	if len(evicted) != 0 {
		t.Fatalf("evicted %v under the cap", evicted)
	}
	// At the cap each create evicts the oldest; ids[1] is in flight and
	// ids[2] has retired, leaving no tombstone behind.
	veto[ids[1]] = true
	table.retire(ids[2])
	for _, id := range ids[12:16] {
		create(id, 11)
	}
	if got, want := fmt.Sprint(evicted), fmt.Sprint([]string{ids[0], ids[3], ids[4], ids[5]}); got != want {
		t.Fatalf("evicted %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(asked), fmt.Sprint([]string{ids[0], ids[1], ids[3], ids[4], ids[5]}); got != want {
		t.Fatalf("asked about %s, want %s (the vetoed candidate once, the retired one never)", got, want)
	}
	// Twenty more creates wrap the 16-slot ring; the vetoed entry comes up
	// again in its new place: behind everything that was queued when it was
	// asked about, ids[13] included.
	veto[ids[1]] = false
	evicted = nil
	for _, id := range ids[16:36] {
		create(id, 11)
	}
	want := append(append([]string{}, ids[6:14]...), ids[1])
	want = append(want, ids[14:25]...)
	if got := fmt.Sprint(evicted); got != fmt.Sprint(want) {
		t.Fatalf("evicted %s, want %s", got, fmt.Sprint(want))
	}
	s := &table.shards[0]
	if len(s.order) != 16 || s.n != 11 || len(s.m) != 11 {
		t.Errorf("stripe holds %d entries in a ring of %d slots (%d in use), want 11 in 16", len(s.m), len(s.order), s.n)
	}
	for i := 0; i < len(s.order)-s.n; i++ { // a popped slot pins no ID
		if id := s.order[(s.head+s.n+i)&(len(s.order)-1)]; id != "" {
			t.Errorf("free ring slot still holds %q", id)
		}
	}
}

// TestRetireLeavesNoTombstone: whichever entry retires — the newest, the
// oldest, one in the middle with the ring wrapped around its end — the
// ring stays the seated IDs in insertion order, and the freed slot pins
// nothing.
func TestRetireLeavesNoTombstone(t *testing.T) {
	ids := sameStripeIDs(12)
	var table shardedTable[*int]
	create := func(id string, max int) { table.getOrCreate(id, max, func(*int) *int { return new(int) }, nil) }
	for _, id := range ids[:6] { // cap 4: ids[0] and ids[1] are evicted, the head moves to slot 2
		create(id, 4)
	}
	for _, id := range ids[6:10] { // no eviction: the 8-slot ring fills and wraps
		create(id, 100)
	}
	s := &table.shards[0]
	check := func(want ...string) {
		t.Helper()
		var got []string
		for k := 0; k < len(s.order); k++ {
			if id := s.order[(s.head+k)&(len(s.order)-1)]; k < s.n {
				got = append(got, id)
			} else if id != "" {
				t.Errorf("free ring slot still holds %q", id)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || len(s.m) != len(want) || table.count.Load() != int64(len(want)) {
			t.Fatalf("ring %v, %d seated, count %d; want %v", got, len(s.m), table.count.Load(), want)
		}
	}
	check(ids[2:10]...)
	table.retire(ids[9])
	check(ids[2:9]...)
	table.retire(ids[2])
	check(ids[3:9]...)
	table.retire(ids[5])
	check(ids[3], ids[4], ids[6], ids[7], ids[8])
	create(ids[10], 100)
	create(ids[11], 5) // over the cap again: the oldest goes
	check(ids[4], ids[6], ids[7], ids[8], ids[10], ids[11])
	if len(s.order) != 8 {
		t.Errorf("the ring grew to %d slots", len(s.order))
	}
}

// TestRetireRacingCapEvictionInOneStripe: creates past the cap race
// retires in one stripe, under the coordinator's locking. A retirer holds
// the instance's lock and retires the ID only while it is still seated,
// as currentLocked leaves it; onEvict only TryLocks its candidate, as
// coordinator.onEvict does. Whatever the interleaving, every ID is
// retired, evicted or seated exactly once, the count is the seated
// population, and each stripe's ring holds exactly its map's keys.
func TestRetireRacingCapEvictionInOneStripe(t *testing.T) {
	type inst struct {
		mu      sync.Mutex
		evicted bool // under mu
	}
	type seat struct {
		id string
		v  *inst
	}
	const creators, retirers, perCreator, max = 4, 4, 300, 4
	ids := sameStripeIDs(creators * perCreator)
	var table shardedTable[*inst]
	var evicted, retired atomic.Int64
	onEvict := func(_ string, v *inst, _ *evictScratch) evictVerdict {
		if !v.mu.TryLock() {
			return evictVeto
		}
		defer v.mu.Unlock()
		v.evicted = true
		evicted.Add(1)
		return evictKept
	}
	toRetire := make(chan seat, len(ids))
	var creating, retiring sync.WaitGroup
	for c := 0; c < creators; c++ {
		creating.Add(1)
		go func(mine []string) {
			defer creating.Done()
			for i, id := range mine {
				v, _, _ := table.getOrCreate(id, max, func(*inst) *inst { return new(inst) }, onEvict)
				if i%2 == 0 { // the other half stays until the valve takes it
					toRetire <- seat{id, v}
				}
			}
		}(ids[c*perCreator : (c+1)*perCreator])
	}
	for r := 0; r < retirers; r++ {
		retiring.Add(1)
		go func() {
			defer retiring.Done()
			for s := range toRetire {
				s.v.mu.Lock()
				if cur, ok := table.get(s.id); ok && cur == s.v {
					if s.v.evicted {
						t.Errorf("%s is seated and evicted", s.id)
					}
					runtime.Gosched() // hold the instance while creates scan past it
					table.retire(s.id)
					retired.Add(1)
				}
				s.v.mu.Unlock()
			}
		}()
	}
	creating.Wait()
	close(toRetire)
	retiring.Wait()

	seated := 0
	for i := range table.shards {
		s := &table.shards[i]
		ring := map[string]bool{}
		for k := 0; k < s.n; k++ {
			id := s.order[(s.head+k)&(len(s.order)-1)]
			if _, ok := s.m[id]; !ok || ring[id] {
				t.Fatalf("stripe %d: ring entry %q is not seated, or twice in the ring", i, id)
			}
			ring[id] = true
		}
		if len(ring) != len(s.m) {
			t.Fatalf("stripe %d: ring holds %d IDs, map %d", i, len(ring), len(s.m))
		}
		seated += len(s.m)
	}
	if n := table.count.Load(); n != int64(seated) {
		t.Fatalf("count = %d, seated population %d", n, seated)
	}
	ev, re := evicted.Load(), retired.Load()
	if left := int64(len(ids)) - ev - re; left != int64(seated) {
		t.Fatalf("%d created, %d evicted, %d retired: %d should be seated, %d are", len(ids), ev, re, left, seated)
	}
	if ev == 0 || re == 0 {
		t.Fatalf("%d evicted, %d retired: the race was not run", ev, re)
	}
}

// TestGetOrCreateAtCapAllocatesOnlyTheInstance: at the cap every create
// evicts, and the stripe's eviction order costs it nothing — it was a
// slice trimmed at the front and appended at the back, re-allocated every
// time its shrinking capacity ran out (about every other create at cap 8,
// where a stripe holds an entry or none). The stripes are warmed first so
// their maps have stopped growing; what is left beside the instance is the
// map's own occasional rehash.
func TestGetOrCreateAtCapAllocatesOnlyTheInstance(t *testing.T) {
	const creates = 4000
	for _, max := range []int{8, 512} {
		var table shardedTable[*coordInstance]
		mk := func(*coordInstance) *coordInstance { return &coordInstance{hydrated: true} }
		onEvict := func(string, *coordInstance, *evictScratch) evictVerdict { return evictKept }
		ids := make([]string, 5*creates)
		for i := range ids {
			ids[i] = "i" + strconv.Itoa(i)
		}
		for _, id := range ids[:4*creates] {
			table.getOrCreate(id, max, mk, onEvict)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, id := range ids[4*creates:] {
			table.getOrCreate(id, max, mk, onEvict)
		}
		runtime.ReadMemStats(&after)
		per := float64(after.Mallocs-before.Mallocs) / creates
		t.Logf("cap %d: %.3f objects per create", max, per)
		if per > 1.02 {
			t.Errorf("cap %d: a create at the cap allocates %.3f objects, want the instance's 1", max, per)
		}
		if n := table.count.Load(); n > int64(max)+instShardCount {
			t.Errorf("cap %d: %d instances in the table", max, n)
		}
	}
}
