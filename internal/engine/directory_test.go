package engine

import (
	"fmt"
	"testing"

	"selfserv/internal/placement"
)

// TestDirectoryRouteDeterministicAcrossNodes is the scale-out
// determinism property at the Directory layer: two directories (two
// "nodes") that learned the same replica set in DIFFERENT orders route
// every (instance, tenant) key to the same replica — including after a
// directory update adds another replica.
func TestDirectoryRouteDeterministicAcrossNodes(t *testing.T) {
	pol := placement.Policy{ShardSize: 2, Dedicated: map[string]int{"visa": 1}}
	d1 := NewDirectory()
	d1.SetPolicy(pol)
	d2 := NewDirectory()
	d2.SetPolicy(pol)

	replicas := []string{"r1", "r2", "r3", "r4"}
	for _, a := range replicas { // forward order
		d1.AddReplicaV("C", 0, "s1", a)
	}
	for i := len(replicas) - 1; i >= 0; i-- { // reverse order
		d2.AddReplicaV("C", 0, "s1", replicas[i])
	}

	check := func(phase string) {
		t.Helper()
		for i := 0; i < 100; i++ {
			inst := fmt.Sprintf("i%d", i)
			for _, tenant := range []string{"", "visa", "acme"} {
				a1, ok1 := d1.RouteV("C", 0, "s1", inst, tenant)
				a2, ok2 := d2.RouteV("C", 0, "s1", inst, tenant)
				if !ok1 || !ok2 || a1 != a2 {
					t.Fatalf("%s: nodes disagree on (%q,%q): %q/%v vs %q/%v",
						phase, inst, tenant, a1, ok1, a2, ok2)
				}
			}
		}
	}
	check("initial")

	// A directory update (scale-out event) must leave the nodes agreeing.
	d1.AddReplicaV("C", 0, "s1", "r5")
	d2.AddReplicaV("C", 0, "s1", "r5")
	check("after AddReplica")

	d1.RemoveReplicaV("C", 0, "s1", "r2")
	d2.RemoveReplicaV("C", 0, "s1", "r2")
	check("after RemoveReplica")
	for _, d := range []*Directory{d1, d2} {
		if got := d.PeerReplicas("C", 0)["s1"]; len(got) != 4 {
			t.Fatalf("replicas = %v", got)
		}
	}
}

// TestDirectoryReplicaSetSemantics pins the Set/AddReplica/Remove
// contract: Set replaces with a singleton, AddReplica is idempotent,
// removing the last replica drops the peer, Lookup returns the
// canonical first replica.
func TestDirectoryReplicaSetSemantics(t *testing.T) {
	d := NewDirectory()
	d.AddReplicaV("C", 0, "s1", "b")
	d.AddReplicaV("C", 0, "s1", "a")
	d.AddReplicaV("C", 0, "s1", "a") // idempotent
	if got := d.PeerReplicas("C", 0)["s1"]; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("replicas = %v", got)
	}
	if addr, ok := d.LookupV("C", 0, "s1"); !ok || addr != "a" {
		t.Fatalf("Lookup = %q, %v", addr, ok)
	}
	if pr := d.PeerReplicas("C", 0); len(pr["s1"]) != 2 {
		t.Fatalf("PeerReplicas = %v", pr)
	}

	d.Set("C", "s1", "only")
	if got := d.PeerReplicas("C", 0)["s1"]; len(got) != 1 || got[0] != "only" {
		t.Fatalf("after Set, replicas = %v", got)
	}

	d.RemoveReplicaV("C", 0, "s1", "only")
	if _, ok := d.LookupV("C", 0, "s1"); ok {
		t.Fatal("peer survived removal of its last replica")
	}
	if _, ok := d.RouteV("C", 0, "s1", "i1", ""); ok {
		t.Fatal("Route resolved a removed peer")
	}
}

// TestDirectoryPolicyIsFixedOnce pins the policy gate: the first
// SetPolicy sets the policy (a dedicated cell isolates from the first
// route), a second, different one is refused and moves no route, and an
// equal one, spelled with an empty map where the first had none, is
// accepted. A directory that took a new policy would re-route the
// instances in flight, so a host keeps one for its lifetime.
func TestDirectoryPolicyIsFixedOnce(t *testing.T) {
	d := NewDirectory()
	cell := placement.Policy{Dedicated: map[string]int{"visa": 2}}
	if !d.SetPolicy(cell) {
		t.Fatal("the first SetPolicy was refused")
	}
	for _, a := range []string{"r1", "r2", "r3", "r4"} {
		d.AddReplicaV("C", 0, "s1", a)
	}
	routes := func() map[string]string {
		out := map[string]string{}
		for i := 0; i < 100; i++ {
			inst := fmt.Sprintf("i%d", i)
			for _, tenant := range []string{"visa", "acme"} {
				out[tenant+"/"+inst], _ = d.RouteV("C", 0, "s1", inst, tenant)
			}
		}
		return out
	}
	before := routes()
	visa := map[string]bool{}
	for i := 0; i < 100; i++ {
		visa[before[fmt.Sprintf("visa/i%d", i)]] = true
	}
	if len(visa) != 2 {
		t.Fatalf("visa cell spread over %d replicas, want 2", len(visa))
	}
	for i := 0; i < 100; i++ {
		if a := before[fmt.Sprintf("acme/i%d", i)]; visa[a] {
			t.Fatalf("non-dedicated tenant landed on visa cell replica %s", a)
		}
	}

	held := d.snap.Load()
	if d.SetPolicy(placement.Policy{ShardSize: 1}) {
		t.Fatal("a second, different policy was accepted")
	}
	if !d.SetPolicy(placement.Policy{Tenants: map[string]int{}, Dedicated: map[string]int{"visa": 2}}) {
		t.Fatal("the policy already set, with an empty Tenants map, was refused")
	}
	if d.snap.Load() != held {
		t.Fatal("a SetPolicy after the first published a snapshot")
	}
	if !d.Policy().Equal(cell) {
		t.Fatalf("policy = %+v, want %+v", d.Policy(), cell)
	}
	after := routes()
	for key, a := range before {
		if after[key] != a {
			t.Fatalf("%s moved from %s to %s after a refused SetPolicy", key, a, after[key])
		}
	}
}

// TestDirectoryWritersLeaveOldSnapshotsIntact pins the copy-on-write
// half of Directory.mutate: a reader that loaded the snapshot before a
// write — a RouteV in flight — resolves every key exactly as it would
// have had the write not happened, whichever writer it was. And a write
// that changes nothing (a SetPolicy after the first, a stale SetCurrent,
// retiring the current or an absent version) publishes nothing.
func TestDirectoryWritersLeaveOldSnapshotsIntact(t *testing.T) {
	d := NewDirectory()
	d.SetPolicy(placement.Policy{ShardSize: 2})
	for _, a := range []string{"r1", "r2", "r3"} {
		d.AddReplicaV("C", 1, "s1", a)
	}
	d.SetReplicasV("C", 2, "s1", []string{"r4"})
	d.SetReplicasV("D", 1, "s1", []string{"r5"})
	d.SetCurrent("C", 1)

	// render is everything a reader can get out of one snapshot: the
	// tables, the current pointers and, per (version, key), RouteV's answer.
	render := func(s *dirSnap) string {
		out := fmt.Sprintf("policy %+v\n", s.policy)
		for _, comp := range []string{"C", "D"} {
			cd := s.comps[comp]
			out += fmt.Sprintf("%s current %d\n", comp, cd.current)
			for v := uint64(0); v <= 3; v++ {
				g, ok := cd.table(v)["s1"]
				if !ok {
					continue
				}
				out += fmt.Sprintf(" v%d %v:", v, g.Addrs())
				for i := 0; i < 16; i++ {
					a, _ := g.Pick("acme", fmt.Sprintf("i%d", i), s.policy)
					out += " " + a
				}
				out += "\n"
			}
		}
		return out
	}

	writers := []struct {
		name  string
		write func()
	}{
		{"AddReplicaV", func() { d.AddReplicaV("C", 1, "s1", "r9") }},
		{"RemoveReplicaV", func() { d.RemoveReplicaV("C", 1, "s1", "r1") }},
		{"SetReplicasV", func() { d.SetReplicasV("C", 1, "s2", []string{"r7"}) }},
		{"SetCurrent", func() { d.SetCurrent("C", 2) }},
		{"RetireVersion", func() { d.RetireVersion("C", 1) }},
	}
	for _, w := range writers {
		held := d.snap.Load()
		before := render(held)
		w.write()
		if d.snap.Load() == held {
			t.Errorf("%s published nothing", w.name)
		}
		if after := render(held); after != before {
			t.Errorf("%s changed a snapshot a reader still holds:\n--- before\n%s--- after\n%s", w.name, before, after)
		}
	}

	held := d.snap.Load()
	if d.SetPolicy(placement.Policy{Dedicated: map[string]int{"acme": 1}}) {
		t.Error("a second, different policy was accepted")
	}
	if !d.SetPolicy(placement.Policy{ShardSize: 2}) {
		t.Error("re-setting the policy already set was refused")
	}
	if d.SetCurrent("C", 1) {
		t.Error("a stale SetCurrent was accepted")
	}
	if !d.SetCurrent("C", 2) {
		t.Error("re-activating the current version was refused")
	}
	d.RetireVersion("C", 2) // the current version
	d.RetireVersion("C", 9) // never existed
	d.RetireVersion("ghost", 1)
	if d.snap.Load() != held {
		t.Error("a write that changed nothing stored a new snapshot")
	}
	if got := d.Versions("ghost"); got != nil {
		t.Errorf("a refused write left an entry behind: ghost has versions %v", got)
	}
}
