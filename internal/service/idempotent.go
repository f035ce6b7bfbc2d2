package service

import (
	"container/list"
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
// retry budget's bounded backoff keeps far shorter than).
type Idempotent struct {
	inner    Provider
	capacity int

	mu       sync.Mutex
	inflight map[Key]*call
	done     map[Key]*list.Element // key -> entry in lru
	lru      *list.List            // front = most recent; holds *entry
	hits     int64
}

type call struct {
	wg   sync.WaitGroup
	resp Response
	err  error
}

type entry struct {
	key  Key
	resp Response
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
		done:     map[Key]*list.Element{},
		lru:      list.New(),
	}
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
	i.done[key] = i.lru.PushFront(&entry{key: key, resp: resp})
	for i.lru.Len() > i.capacity {
		oldest := i.lru.Back()
		i.lru.Remove(oldest)
		delete(i.done, oldest.Value.(*entry).key)
	}
}

// Invoke implements Provider with the dedup semantics documented on the
// type.
func (i *Idempotent) Invoke(ctx context.Context, req Request) (Response, error) {
	key := req.IdempotencyKey
	if key == (Key{}) {
		return i.inner.Invoke(ctx, req)
	}

	i.mu.Lock()
	if el, ok := i.done[key]; ok {
		i.lru.MoveToFront(el)
		i.hits++
		resp := el.Value.(*entry).resp
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
		i.done[key] = i.lru.PushFront(&entry{key: key, resp: c.resp})
		for i.lru.Len() > i.capacity {
			oldest := i.lru.Back()
			i.lru.Remove(oldest)
			delete(i.done, oldest.Value.(*entry).key)
		}
	}
	i.mu.Unlock()
	c.wg.Done()
	return c.resp, c.err
}
