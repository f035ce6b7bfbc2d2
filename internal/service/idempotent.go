package service

import (
	"context"
	"sync"
)

// DefaultIdempotencyCapacity bounds the completed-response cache of an
// Idempotent wrapper when the caller passes capacity <= 0.
const DefaultIdempotencyCapacity = 1024

// Idempotent decorates a Provider with at-most-once execution per
// IdempotencyKey: the retry half of the failover contract. When a
// delegated invocation times out, the caller cannot know whether the
// provider executed it — retrying blindly risks a duplicate booking.
// Failover retries therefore carry the SAME IdempotencyKey, and this
// wrapper turns the retry into either (a) joining the still-in-flight
// first attempt (singleflight), or (b) replaying the cached response of
// a completed attempt, instead of a second execution.
//
// Semantics per Invoke:
//   - Zero IdempotencyKey: pass through untouched (no dedup).
//   - Key seen, attempt in flight: block until it finishes, share its
//     result (the duplicate never reaches the inner provider).
//   - Key seen, attempt SUCCEEDED: replay the cached Response.
//   - Key seen, attempt FAILED: the key is forgotten — a retry after a
//     real failure must re-execute, only duplicates of successes are
//     suppressed.
//
// A replay hands out the cached Response itself — the Outputs map the
// first attempt returned — which is why a provider never returns its
// borrowed Request.Params as Outputs: the caller reuses that map.
//
// Successful responses are kept in an LRU cache of bounded capacity;
// eviction of a key re-opens it (an extremely late retry may then
// re-execute — at-most-once holds within the cache horizon, which the
// retry budget's bounded backoff keeps far shorter than). The cache is a
// slot array linked by index in recency order, so caching a response
// allocates nothing once the array has grown to capacity: the least
// recent slot is reused.
type Idempotent struct {
	inner    Provider
	capacity int

	mu       sync.Mutex
	inflight map[Key]*call
	done     map[Key]int32 // key -> its slot
	// slots[0] is the list's sentinel: its next is the most recent slot,
	// its prev the least recent. At most capacity more follow it.
	slots []slot
	hits  int64
}

type call struct {
	wg   sync.WaitGroup
	resp Response
	err  error
}

// slot is one cached response, linked toward the more recent (prev) and
// the less recent (next) slot.
type slot struct {
	key        Key
	resp       Response
	prev, next int32
}

// NewIdempotent wraps inner with IdempotencyKey-based dedup. capacity
// bounds the completed-response cache (<= 0 means
// DefaultIdempotencyCapacity).
func NewIdempotent(inner Provider, capacity int) *Idempotent {
	if capacity <= 0 {
		capacity = DefaultIdempotencyCapacity
	}
	return &Idempotent{
		inner:    inner,
		capacity: capacity,
		inflight: map[Key]*call{},
		done:     map[Key]int32{},
		slots:    []slot{{}}, // the sentinel, linked to itself
	}
}

// unlinkLocked takes slot s out of the recency list.
func (i *Idempotent) unlinkLocked(s int32) {
	prev, next := i.slots[s].prev, i.slots[s].next
	i.slots[prev].next, i.slots[next].prev = next, prev
}

// frontLocked links the unlinked slot s in as the most recent.
func (i *Idempotent) frontLocked(s int32) {
	next := i.slots[0].next
	i.slots[s].prev, i.slots[s].next = 0, next
	i.slots[next].prev, i.slots[0].next = s, s
}

// storeLocked caches resp under key as the most recent entry: in a new
// slot while the cache is short of capacity, else in the least recent
// one, whose key it evicts.
func (i *Idempotent) storeLocked(key Key, resp Response) {
	s := int32(len(i.slots))
	if len(i.slots) <= i.capacity {
		i.slots = append(i.slots, slot{})
	} else {
		s = i.slots[0].prev
		i.unlinkLocked(s)
		delete(i.done, i.slots[s].key)
	}
	i.slots[s].key, i.slots[s].resp = key, resp
	i.frontLocked(s)
	i.done[key] = s
}

// Name implements Provider.
func (i *Idempotent) Name() string { return i.inner.Name() }

// Operations implements Provider.
func (i *Idempotent) Operations() []string { return i.inner.Operations() }

// Unwrap returns the decorated provider.
func (i *Idempotent) Unwrap() Provider { return i.inner }

// Hits reports how many invocations were answered without reaching the
// inner provider (joined an in-flight attempt or replayed a cached
// response) — the number of duplicate executions prevented.
func (i *Idempotent) Hits() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.hits
}

// Prime seeds the completed-response cache with a key whose successful
// outcome is already known — the crash-recovery path: replayed journal
// records carry the (key, response) pairs of invocations that completed
// before the crash, and priming them means a re-fired round replays the
// response instead of executing the provider a second time. A key that
// is already cached or in flight is left untouched.
func (i *Idempotent) Prime(key Key, resp Response) {
	if key == (Key{}) {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if _, ok := i.done[key]; ok {
		return
	}
	if _, ok := i.inflight[key]; ok {
		return
	}
	i.storeLocked(key, resp)
}

// Invoke implements Provider with the dedup semantics documented on the
// type.
func (i *Idempotent) Invoke(ctx context.Context, req Request) (Response, error) {
	key := req.IdempotencyKey
	if key == (Key{}) {
		return i.inner.Invoke(ctx, req)
	}

	i.mu.Lock()
	if s, ok := i.done[key]; ok {
		i.unlinkLocked(s)
		i.frontLocked(s)
		i.hits++
		resp := i.slots[s].resp
		i.mu.Unlock()
		return resp, nil
	}
	if c, ok := i.inflight[key]; ok {
		i.hits++
		i.mu.Unlock()
		c.wg.Wait() // share the first attempt's outcome
		return c.resp, c.err
	}
	c := &call{}
	c.wg.Add(1)
	i.inflight[key] = c
	i.mu.Unlock()

	c.resp, c.err = i.inner.Invoke(ctx, req)

	i.mu.Lock()
	delete(i.inflight, key)
	if c.err == nil {
		i.storeLocked(key, c.resp)
	}
	i.mu.Unlock()
	c.wg.Done()
	return c.resp, c.err
}
