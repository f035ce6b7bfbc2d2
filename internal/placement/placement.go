// Package placement implements the deterministic two-level lookup that
// routes every notification of a replicated deployment: (tenant,
// instance) → placement (a cell or a shuffle-shard of the replica pool)
// → replica address. It is the scale-out twin of the paper's "the
// coordinators do not need to implement any complex scheduling
// algorithm" invariant: routing a message is pure local hashing over an
// immutable snapshot — no RPC, no coordination, no shared counters —
// so every node holding the replica set and policy the control plane
// shipped computes the SAME replica for the same key, which lets N
// replica hosts of one service state act as one logical coordinator
// (all notifications of one instance converge on one replica).
//
// The placement model follows cell-based routing practice:
//
//   - A "visa"-sized tenant can be pinned to a DEDICATED CELL: a subset
//     of replicas claimed for that tenant and excluded from the shared
//     pool, so nobody else's load (or poison) lands on it.
//   - Every other tenant gets a SHUFFLE-SHARD of the shared pool: a
//     deterministic, tenant-keyed subset of ShardSize replicas. Two
//     tenants' shards overlap only partially, so a noisy tenant
//     degrades at most its own shard, not the whole fleet.
//   - Within a tenant's pool, the instance ID picks the replica by
//     RENDEZVOUS (highest-random-weight) hashing — order-independent,
//     so nodes that learned the replica set in different orders still
//     agree, and adding/removing one replica remaps only the instances
//     that hashed to it (minimal disruption).
//
// Everything here is a pure function of (replica set, policy, key);
// Group precomputes the per-replica-set work (sorting, cell claiming)
// once per directory update so the per-message path is a handful of
// FNV-1a hashes.
package placement

import (
	"maps"
	"sort"
)

// Key prefixes of the two rendezvous selections: a dedicated cell is
// scored under "cell\x00"+tenant, a shuffle-shard under "shard\x00"+tenant.
const (
	cellPrefix  = "cell\x00"
	shardPrefix = "shard\x00"
)

// Policy configures the two-level lookup. The zero value routes every
// key over all replicas by instance hash — the right default for a
// deployment with no tenant isolation needs. The control plane ships a
// policy, as JSON, with every directory push, and a directory keeps the
// first one it is given (engine.Directory.SetPolicy).
type Policy struct {
	// ShardSize bounds how many replicas a tenant's instances spread
	// over (its shuffle-shard of the shared pool). Zero (or a value at
	// least the pool size) disables sharding: the tenant uses the whole
	// shared pool. Untagged traffic (empty tenant) always spreads over
	// the whole shared pool — with no identity to shard by, pinning it
	// to one shard would concentrate every anonymous request.
	ShardSize int `json:"shardSize,omitempty"`
	// Tenants overrides ShardSize for specific tenants (a bigger tenant
	// can get a wider shard).
	Tenants map[string]int `json:"tenants,omitempty"`
	// Dedicated claims a dedicated cell of the given size for each
	// listed tenant: the claimed replicas are excluded from the shared
	// pool, so the tenant's traffic is isolated in BOTH directions.
	// Cells are claimed deterministically in sorted tenant order; if
	// the pool runs out, later tenants fall back to the shared pool.
	Dedicated map[string]int `json:"dedicated,omitempty"`
}

// Equal reports whether p and q are the same policy, field by field; a
// nil map and an empty one are equal.
func (p Policy) Equal(q Policy) bool {
	return p.ShardSize == q.ShardSize && maps.Equal(p.Tenants, q.Tenants) && maps.Equal(p.Dedicated, q.Dedicated)
}

// shardSize returns the tenant's effective shard width over a pool of n
// replicas (0 = the whole pool).
func (p Policy) shardSize(tenant string, n int) int {
	size := p.ShardSize
	if s, ok := p.Tenants[tenant]; ok {
		size = s
	}
	if size <= 0 || size >= n {
		return 0
	}
	return size
}

// fnv1a is FNV-1a 64-bit over two logical segments separated by a NUL
// (so ("ab","c") and ("a","bc") hash differently). Inlined byte loops —
// this runs on every routed notification. The first segment comes in two
// parts, hashed back to back, so that a prefixed key ("shard\x00"+tenant)
// is never concatenated just to be hashed.
func fnv1a(prefix, a, b string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(prefix); i++ {
		h = (h ^ uint64(prefix[i])) * 1099511628211
	}
	for i := 0; i < len(a); i++ {
		h = (h ^ uint64(a[i])) * 1099511628211
	}
	h = (h ^ 0) * 1099511628211 // NUL separator
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
}

// Group is the precomputed placement of one replica set under one
// policy: the canonical (sorted, deduplicated) replica list, the shared
// pool, and the dedicated cells. Immutable after Build; safe for
// concurrent use.
type Group struct {
	addrs  []string            // all replicas, sorted
	shared []string            // replicas not claimed by a dedicated cell
	cells  map[string][]string // dedicated tenant → its claimed cell
}

// Build precomputes the placement of addrs under p. The input order is
// irrelevant (the set is canonicalized), so two nodes that learned the
// replicas in different orders build identical groups.
func Build(addrs []string, p Policy) *Group {
	sorted := make([]string, 0, len(addrs))
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		sorted = append(sorted, a)
	}
	sort.Strings(sorted)
	g := &Group{addrs: sorted, shared: sorted}

	if len(p.Dedicated) == 0 || len(sorted) == 0 {
		return g
	}
	tenants := make([]string, 0, len(p.Dedicated))
	for t := range p.Dedicated {
		if p.Dedicated[t] > 0 {
			tenants = append(tenants, t)
		}
	}
	sort.Strings(tenants)
	claimed := make(map[string]bool, len(sorted))
	g.cells = make(map[string][]string, len(tenants))
	for _, t := range tenants {
		avail := make([]string, 0, len(sorted)-len(claimed))
		for _, a := range sorted {
			if !claimed[a] {
				avail = append(avail, a)
			}
		}
		if len(avail) == 0 {
			break // pool exhausted: remaining tenants use the shared pool
		}
		cell := topK(avail, p.Dedicated[t], cellPrefix, t)
		for _, a := range cell {
			claimed[a] = true
		}
		g.cells[t] = cell
	}
	shared := make([]string, 0, len(sorted)-len(claimed))
	for _, a := range sorted {
		if !claimed[a] {
			shared = append(shared, a)
		}
	}
	if len(shared) == 0 {
		// Every replica is dedicated: unlisted tenants fall back to the
		// full set rather than having nowhere to go.
		shared = sorted
	}
	g.shared = shared
	return g
}

// scored is one candidate of a rendezvous selection: its index in the
// pool and its score for the key.
type scored struct {
	idx   int
	score uint64
}

// inlineK is how many selected candidates fit the stack array callers of
// selectK pass in; a wider shard or cell spills to the heap through
// append. ShardSize and Dedicated are small numbers by design.
const inlineK = 8

// selectK appends to best (empty, any capacity) the k entries of pool
// with the highest rendezvous score for the key prefix+name, in pool
// order — which is sorted, so the selection is canonical. k <= 0 or
// k >= len(pool) selects the whole pool, reported as nil.
func selectK(pool []string, k int, prefix, name string, best []scored) []scored {
	if k <= 0 || k >= len(pool) {
		return nil
	}
	for i, a := range pool {
		s := fnv1a(prefix, name, a)
		if len(best) < k {
			best = append(best, scored{i, s})
			continue
		}
		// Replace the current minimum if this score beats it.
		min := 0
		for j := 1; j < k; j++ {
			if best[j].score < best[min].score {
				min = j
			}
		}
		if s > best[min].score {
			best[min] = scored{i, s}
		}
	}
	// Back into pool order: insertion sort, k is a handful.
	for i := 1; i < len(best); i++ {
		for j := i; j > 0 && best[j].idx < best[j-1].idx; j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
	}
	return best
}

// topK returns selectK's selection as addresses: pool itself when that
// is the whole pool.
func topK(pool []string, k int, prefix, name string) []string {
	var buf [inlineK]scored
	best := selectK(pool, k, prefix, name, buf[:0])
	if best == nil {
		return pool
	}
	out := make([]string, len(best))
	for i, b := range best {
		out[i] = pool[b.idx]
	}
	return out
}

// Addrs returns the full canonical replica list (do not mutate).
func (g *Group) Addrs() []string { return g.addrs }

// Len returns the number of replicas.
func (g *Group) Len() int { return len(g.addrs) }

// First returns the canonical first replica ("", false when empty) —
// the single-replica compatibility accessor.
func (g *Group) First() (string, bool) {
	if len(g.addrs) == 0 {
		return "", false
	}
	return g.addrs[0], true
}

// Pool returns the replicas the tenant's instances may land on: its
// dedicated cell, or its shuffle-shard of the shared pool. Exposed for
// tests and tooling; Pick is the hot-path entry.
func (g *Group) Pool(tenant string, p Policy) []string {
	if cell, ok := g.cells[tenant]; ok {
		return cell
	}
	if tenant == "" {
		return g.shared
	}
	return topK(g.shared, p.shardSize(tenant, len(g.shared)), shardPrefix, tenant)
}

// Pick resolves the replica for one routing key: tenant → pool (cell or
// shuffle-shard), instance → rendezvous winner within the pool. Pure
// and total: any two nodes holding an equal replica SET and policy
// return the same address for the same key. Returns ("", false) only
// for an empty group. It is Pool followed by the rendezvous pick, without
// materializing the pool: a shuffle-shard is selected as indices into the
// shared pool, on the stack, and the pick runs over those.
func (g *Group) Pick(tenant, instance string, p Policy) (string, bool) {
	if len(g.addrs) == 0 {
		return "", false
	}
	if len(g.addrs) == 1 {
		return g.addrs[0], true
	}
	pool := g.shared
	var buf [inlineK]scored
	var shard []scored // nil: the whole pool
	if cell, ok := g.cells[tenant]; ok {
		pool = cell
	} else if tenant != "" {
		shard = selectK(pool, p.shardSize(tenant, len(pool)), shardPrefix, tenant, buf[:0])
	}
	n := len(pool)
	if shard != nil {
		n = len(shard)
	}
	var best string
	var bestScore uint64
	for i := 0; i < n; i++ {
		a := pool[i]
		if shard != nil {
			a = pool[shard[i].idx]
		}
		if s := fnv1a("", instance, a); i == 0 || s > bestScore {
			best, bestScore = a, s
		}
	}
	return best, true
}
