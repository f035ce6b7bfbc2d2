package placement

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestBuildCanonicalizes pins that Build sorts, dedups, and drops empty
// addresses, so the group is a pure function of the replica SET.
func TestBuildCanonicalizes(t *testing.T) {
	g := Build([]string{"c", "a", "", "b", "a", "c"}, Policy{})
	want := []string{"a", "b", "c"}
	if len(g.Addrs()) != len(want) {
		t.Fatalf("addrs = %v, want %v", g.Addrs(), want)
	}
	for i, a := range want {
		if g.Addrs()[i] != a {
			t.Fatalf("addrs = %v, want %v", g.Addrs(), want)
		}
	}
	if first, ok := g.First(); !ok || first != "a" {
		t.Fatalf("First() = %q, %v", first, ok)
	}
}

// TestPickPermutationInvariant is the core determinism property: every
// node computes the identical replica for the same (instance, tenant)
// key regardless of the order it learned the replica set in.
func TestPickPermutationInvariant(t *testing.T) {
	addrs := []string{"h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"}
	pol := Policy{ShardSize: 3, Dedicated: map[string]int{"visa": 2}}
	ref := Build(addrs, pol)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		perm := append([]string(nil), addrs...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		g := Build(perm, pol)
		for i := 0; i < 50; i++ {
			inst := fmt.Sprintf("i%d", i)
			for _, tenant := range []string{"", "visa", "acme", "tiny"} {
				want, _ := ref.Pick(tenant, inst, pol)
				got, ok := g.Pick(tenant, inst, pol)
				if !ok || got != want {
					t.Fatalf("trial %d: Pick(%q, %q) = %q, want %q (perm %v)",
						trial, tenant, inst, got, want, perm)
				}
			}
		}
	}
}

// TestPickEmptyAndSingle covers the degenerate group sizes.
func TestPickEmptyAndSingle(t *testing.T) {
	if _, ok := Build(nil, Policy{}).Pick("t", "i", Policy{}); ok {
		t.Fatal("empty group must not pick")
	}
	if a, ok := Build([]string{"only"}, Policy{}).Pick("t", "i", Policy{}); !ok || a != "only" {
		t.Fatalf("single group Pick = %q, %v", a, ok)
	}
}

// TestDedicatedCellIsolation pins the failure-domain property: a
// dedicated tenant's instances land only inside its cell, and no other
// tenant's instances ever land on the cell's replicas.
func TestDedicatedCellIsolation(t *testing.T) {
	addrs := []string{"h0", "h1", "h2", "h3", "h4", "h5"}
	pol := Policy{ShardSize: 2, Dedicated: map[string]int{"visa": 2}}
	g := Build(addrs, pol)
	cell := map[string]bool{}
	for _, a := range g.Pool("visa", pol) {
		cell[a] = true
	}
	if len(cell) != 2 {
		t.Fatalf("visa cell = %v, want size 2", g.Pool("visa", pol))
	}
	for i := 0; i < 200; i++ {
		inst := fmt.Sprintf("i%d", i)
		if a, _ := g.Pick("visa", inst, pol); !cell[a] {
			t.Fatalf("visa instance %s routed outside its cell: %s", inst, a)
		}
		for _, other := range []string{"", "acme", "bulk"} {
			if a, _ := g.Pick(other, inst, pol); cell[a] {
				t.Fatalf("tenant %q instance %s landed on visa cell replica %s", other, inst, a)
			}
		}
	}
}

// TestShuffleShardBounds pins that a sharded tenant spreads over at
// most ShardSize replicas while the anonymous tenant uses the whole
// shared pool.
func TestShuffleShardBounds(t *testing.T) {
	addrs := make([]string, 10)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("h%02d", i)
	}
	pol := Policy{ShardSize: 3, Tenants: map[string]int{"wide": 5}}
	g := Build(addrs, pol)

	hit := func(tenant string) map[string]bool {
		m := map[string]bool{}
		for i := 0; i < 500; i++ {
			a, _ := g.Pick(tenant, fmt.Sprintf("i%d", i), pol)
			m[a] = true
		}
		return m
	}
	if got := hit("acme"); len(got) > 3 {
		t.Fatalf("tenant acme spread over %d replicas, shard size 3", len(got))
	}
	if got := hit("wide"); len(got) > 5 {
		t.Fatalf("tenant wide spread over %d replicas, override 5", len(got))
	}
	// 500 instances over a 10-replica pool: the anonymous tenant should
	// touch every replica with overwhelming probability.
	if got := hit(""); len(got) != 10 {
		t.Fatalf("anonymous tenant spread over %d replicas, want all 10", len(got))
	}
}

// TestShardsDiffer spot-checks that two tenants' shuffle-shards are not
// the same subset (the whole point of shuffle-sharding) for at least
// one pair among a handful of tenants.
func TestShardsDiffer(t *testing.T) {
	addrs := make([]string, 12)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("h%02d", i)
	}
	pol := Policy{ShardSize: 3}
	g := Build(addrs, pol)
	shards := map[string][]string{}
	for _, tenant := range []string{"t1", "t2", "t3", "t4", "t5"} {
		shards[tenant] = g.Pool(tenant, pol)
	}
	same := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	distinct := false
	for _, a := range []string{"t1", "t2", "t3", "t4"} {
		for _, b := range []string{"t2", "t3", "t4", "t5"} {
			if a != b && !same(shards[a], shards[b]) {
				distinct = true
			}
		}
	}
	if !distinct {
		t.Fatalf("all five tenants got the identical shard %v", shards["t1"])
	}
}

// TestMinimalDisruption pins the rendezvous property that removing one
// replica only remaps instances that were routed to it.
func TestMinimalDisruption(t *testing.T) {
	addrs := []string{"h0", "h1", "h2", "h3"}
	pol := Policy{}
	before := Build(addrs, pol)
	after := Build([]string{"h0", "h1", "h3"}, pol) // h2 removed
	for i := 0; i < 200; i++ {
		inst := fmt.Sprintf("i%d", i)
		b, _ := before.Pick("", inst, pol)
		a, _ := after.Pick("", inst, pol)
		if b != "h2" && a != b {
			t.Fatalf("instance %s moved %s→%s though its replica survived", inst, b, a)
		}
	}
}

// TestDedicatedExhaustion: more dedicated demand than replicas — later
// tenants (sorted order) fall back to the shared pool, and the shared
// pool falls back to the full set when fully claimed.
func TestDedicatedExhaustion(t *testing.T) {
	pol := Policy{Dedicated: map[string]int{"aa": 2, "bb": 2}}
	g := Build([]string{"h0", "h1"}, pol)
	if len(g.Pool("aa", pol)) != 2 {
		t.Fatalf("aa cell = %v", g.Pool("aa", pol))
	}
	// bb found the pool exhausted: routes via shared, which fell back to
	// the full set.
	if got := g.Pool("bb", pol); len(got) != 2 {
		t.Fatalf("bb pool = %v, want full-set fallback", got)
	}
	if a, ok := g.Pick("bb", "i1", pol); !ok || a == "" {
		t.Fatalf("bb must still route somewhere, got %q, %v", a, ok)
	}
}

// The reference below is the selection as it was before Pick stopped
// allocating: the key concatenated, a scored slice, sort.Slice, a result
// slice per call. It is kept to hold the allocation-free path to the
// identical winner.

func refFnv1a(a, b string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(a); i++ {
		h = (h ^ uint64(a[i])) * 1099511628211
	}
	h = (h ^ 0) * 1099511628211
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
}

func refTopK(pool []string, k int, key string) []string {
	if k <= 0 || k >= len(pool) {
		return pool
	}
	type scored struct {
		idx   int
		score uint64
	}
	best := make([]scored, 0, k)
	for i, a := range pool {
		s := refFnv1a(key, a)
		if len(best) < k {
			best = append(best, scored{i, s})
			continue
		}
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
	sort.Slice(best, func(i, j int) bool { return best[i].idx < best[j].idx })
	out := make([]string, len(best))
	for i, b := range best {
		out[i] = pool[b.idx]
	}
	return out
}

// refPick resolves one key from the sorted replica list alone: cells
// claimed in sorted tenant order, then cell or shuffle-shard, then the
// rendezvous winner.
func refPick(sorted []string, p Policy, tenant, instance string) string {
	claimed := map[string]bool{}
	cells := map[string][]string{}
	var tenants []string
	for t, n := range p.Dedicated {
		if n > 0 {
			tenants = append(tenants, t)
		}
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		var avail []string
		for _, a := range sorted {
			if !claimed[a] {
				avail = append(avail, a)
			}
		}
		if len(avail) == 0 {
			break
		}
		cells[t] = refTopK(avail, p.Dedicated[t], "cell\x00"+t)
		for _, a := range cells[t] {
			claimed[a] = true
		}
	}
	var shared []string
	for _, a := range sorted {
		if !claimed[a] {
			shared = append(shared, a)
		}
	}
	if len(shared) == 0 {
		shared = sorted
	}
	pool := shared
	if cell, ok := cells[tenant]; ok {
		pool = cell
	} else if tenant != "" {
		pool = refTopK(shared, p.shardSize(tenant, len(shared)), "shard\x00"+tenant)
	}
	best, bestScore := pool[0], refFnv1a(instance, pool[0])
	for _, a := range pool[1:] {
		if s := refFnv1a(instance, a); s > bestScore {
			best, bestScore = a, s
		}
	}
	return best
}

// TestPickMatchesReference draws 10,000 (group, policy, tenant, instance)
// cases from a seed — groups of 2 to 14 replicas, shards and cells on
// both sides of inlineK, per-tenant overrides, untagged traffic — and
// holds Pick to the reference's winner on every one.
func TestPickMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tenants := []string{"", "visa", "acme", "tiny", "t\x00nul"}
	for n := 0; n < 10000; n++ {
		addrs := make([]string, 2+rng.Intn(13))
		for i := range addrs {
			addrs[i] = fmt.Sprintf("h%02d:%d", i, rng.Intn(1000))
		}
		pol := Policy{ShardSize: rng.Intn(len(addrs) + 2)}
		if rng.Intn(3) == 0 {
			pol.Tenants = map[string]int{"acme": rng.Intn(len(addrs) + 1)}
		}
		if rng.Intn(3) == 0 {
			pol.Dedicated = map[string]int{"visa": rng.Intn(len(addrs))}
			if rng.Intn(2) == 0 {
				pol.Dedicated["tiny"] = 1 + rng.Intn(3)
			}
		}
		g := Build(addrs, pol)
		tenant := tenants[rng.Intn(len(tenants))]
		inst := fmt.Sprintf("i%d", rng.Intn(1<<20))
		got, ok := g.Pick(tenant, inst, pol)
		if want := refPick(g.Addrs(), pol, tenant, inst); !ok || got != want {
			t.Fatalf("case %d: Pick(%q, %q) over %v under %+v = %q, reference says %q", n, tenant, inst, g.Addrs(), pol, got, want)
		}
	}
}

// TestPickAllocatesNothing pins the routed-notification path under a
// sharded policy: a 3-replica group with ShardSize 2, the shape of the
// benchmark's replicated travel workload.
func TestPickAllocatesNothing(t *testing.T) {
	pol := Policy{ShardSize: 2}
	g := Build([]string{"h0", "h1", "h2"}, pol)
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := g.Pick("acme", "i421", pol); !ok {
			t.Fatal("no pick")
		}
	}); n != 0 {
		t.Fatalf("Pick allocates %v objects per call, want 0", n)
	}
}
