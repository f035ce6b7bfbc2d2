package engine

import (
	"maps"
	"sync"
	"sync/atomic"

	"selfserv/internal/placement"
)

// Directory maps (composite, plan version, peer ID) to the replica set
// hosting that peer. Peer IDs are state IDs plus message.WrapperID. It
// is the runtime equivalent of the "location" column the paper stores
// in routing tables; the control plane fills it, policy included. Since
// the scale-out work, a peer may be hosted by N replicas: the directory
// stores a precomputed placement.Group per peer and resolves one
// concrete replica per routing key via RouteV (tenant →
// cell/shuffle-shard, instance → rendezvous). Routing is a pure local
// computation — never an RPC — so every node holding the same directory
// contents routes the same key to the same replica.
//
// Since the redeploy work, each composite keeps SEVERAL peer tables at
// once — one per live plan version — plus a `current` pointer naming
// the version new instances start on. In-flight instances pinned to an
// older version keep resolving against that version's table until the
// platform retires it, so a swap never re-routes a half-finished
// execution. Every peer operation takes the plan version under ONE
// rule: version 0 means the composite's current version. A composite
// that never saw a versioned deploy has current == 0 and one table, so
// unversioned callers (version 0 everywhere) behave exactly as before
// versions existed; an unversioned caller of a versioned deployment is
// served by whatever plan is live.
//
// Reads are lock-free: the directory keeps its entire contents in an
// immutable copy-on-write snapshot swapped atomically on writes. Writes
// happen a handful of times per composite (deploy, redeploy); lookups
// happen on every notification send, so the coordinator hot path pays
// one atomic load, three map reads, and a few FNV hashes — no RWMutex.
type Directory struct {
	mu    sync.Mutex // lockorder:directory — serializes writers only; never nested
	fixed bool       // SetPolicy has set the policy; read and written under mu
	snap  atomic.Pointer[dirSnap]
}

// dirSnap is one immutable directory state: the placement policy and,
// per composite, the versioned peer tables. The policy lives in the
// snapshot so a RouteV racing the first SetPolicy sees a consistent
// (groups, policy) pair.
type dirSnap struct {
	policy placement.Policy
	comps  map[string]*compDir
}

// compDir is one composite's entry: the version new instances start on
// and one peer table per still-live plan version.
type compDir struct {
	current  uint64
	versions map[uint64]map[string]*placement.Group
}

// table returns the peer table of version — 0 means current — or nil.
func (cd *compDir) table(version uint64) map[string]*placement.Group {
	if cd == nil {
		return nil
	}
	if version == 0 {
		version = cd.current
	}
	return cd.versions[version]
}

// NewDirectory returns an empty directory that routes with the zero (no
// sharding, no cells) placement policy until SetPolicy sets one.
func NewDirectory() *Directory {
	d := &Directory{}
	d.snap.Store(&dirSnap{comps: map[string]*compDir{}})
	return d
}

// mutate is the directory's one writer: under the writer lock it runs
// edit on a copy of the snapshot — a fresh composite map over the old
// entries, of which edit forks (dirSnap.fork) the ones it changes,
// replacing, never writing, the maps below — and publishes the copy if
// edit reports a change. Readers of the old snapshot see it unchanged.
func (d *Directory) mutate(edit func(next *dirSnap) bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.snap.Load()
	next := &dirSnap{policy: old.policy, comps: make(map[string]*compDir, len(old.comps)+1)}
	maps.Copy(next.comps, old.comps)
	if edit(next) {
		d.snap.Store(next)
	}
}

// fork gives s, a snapshot under construction, its own copy of
// composite's entry (empty if there was none) and returns it: the entry
// and its version map are fresh, the peer tables in it still shared.
func (s *dirSnap) fork(composite string) *compDir {
	cd := &compDir{versions: map[uint64]map[string]*placement.Group{}}
	if old := s.comps[composite]; old != nil {
		cd.current = old.current
		maps.Copy(cd.versions, old.versions)
	}
	s.comps[composite] = cd
	return cd
}

// update edits a fresh copy of the peer table of version (0 means
// current) under the snapshot's policy.
func (d *Directory) update(composite string, version uint64, fn func(byID map[string]*placement.Group, pol placement.Policy)) {
	d.mutate(func(next *dirSnap) bool {
		cd := next.fork(composite)
		if version == 0 {
			version = cd.current
		}
		byID := make(map[string]*placement.Group, len(cd.versions[version])+1)
		maps.Copy(byID, cd.versions[version])
		fn(byID, next.policy)
		cd.versions[version] = byID
		return true
	})
}

// SetPolicy fixes the directory's placement policy: the first call sets
// it; a later one changes nothing and reports whether it asked for the
// same policy (placement.Policy.Equal). A group is built under the
// policy in force when it is written, so a push sets it first.
func (d *Directory) SetPolicy(pol placement.Policy) bool {
	ok := true
	d.mutate(func(next *dirSnap) bool {
		if d.fixed {
			ok = next.policy.Equal(pol)
			return false
		}
		d.fixed, next.policy = true, pol
		return true
	})
	return ok
}

// SetCurrent moves the composite's current pointer to version: new
// instances start on it, version-0 operations resolve against it. A stale
// move (version lower than the current pointer) is rejected — returns
// false — so out-of-order rollout pushes cannot regress a host that
// already activated a newer plan. Activating the version already
// current is an idempotent success.
func (d *Directory) SetCurrent(composite string, version uint64) bool {
	ok := true
	d.mutate(func(next *dirSnap) bool {
		if old := next.comps[composite]; old != nil && version <= old.current {
			ok = version == old.current
			return false
		}
		next.fork(composite).current = version
		return true
	})
	return ok
}

// Current returns the version new instances of composite start on
// (zero when the composite is unknown or never saw a versioned deploy).
func (d *Directory) Current(composite string) uint64 {
	if cd := d.snap.Load().comps[composite]; cd != nil {
		return cd.current
	}
	return 0
}

// Versions returns the live plan versions of composite, unordered.
func (d *Directory) Versions(composite string) []uint64 {
	cd := d.snap.Load().comps[composite]
	if cd == nil {
		return nil
	}
	out := make([]uint64, 0, len(cd.versions))
	for v := range cd.versions {
		out = append(out, v)
	}
	return out
}

// RetireVersion drops version's peer table, releasing the routing state
// of a fully drained plan. The current version is never retired (the
// call is ignored); retiring an absent version is a no-op.
func (d *Directory) RetireVersion(composite string, version uint64) {
	d.mutate(func(next *dirSnap) bool {
		old := next.comps[composite]
		if old == nil || version == old.current || old.versions[version] == nil {
			return false
		}
		delete(next.fork(composite).versions, version)
		return true
	})
}

// Policy returns the placement policy the directory routes with.
func (d *Directory) Policy() placement.Policy { return d.snap.Load().policy }

// Set records that peer id of composite lives at addr in the current
// version — replacing any previous replica set with the singleton
// {addr}. Single-host deployments use this.
func (d *Directory) Set(composite, id, addr string) {
	d.SetReplicasV(composite, 0, id, []string{addr})
}

// SetReplicasV replaces peer id's replica set in version's table.
// Deployers use this to stage v(n+1)'s peer table while v(n) keeps
// serving; SetCurrent flips instances over once the table is complete.
func (d *Directory) SetReplicasV(composite string, version uint64, id string, addrs []string) {
	d.update(composite, version, func(byID map[string]*placement.Group, pol placement.Policy) {
		byID[id] = placement.Build(addrs, pol)
	})
}

// AddReplicaV adds addr to peer id's replica set in version's table
// (idempotent). The replica set is a SET: the order AddReplicaV calls
// arrive in does not affect routing, so nodes that learn of replicas in
// different orders still agree.
func (d *Directory) AddReplicaV(composite string, version uint64, id, addr string) {
	d.update(composite, version, func(byID map[string]*placement.Group, pol placement.Policy) {
		var addrs []string
		if g := byID[id]; g != nil {
			addrs = append(addrs, g.Addrs()...)
		}
		byID[id] = placement.Build(append(addrs, addr), pol)
	})
}

// RemoveReplicaV removes addr from peer id's replica set in version's
// table, dropping the peer entirely when no replicas remain.
func (d *Directory) RemoveReplicaV(composite string, version uint64, id, addr string) {
	d.update(composite, version, func(byID map[string]*placement.Group, pol placement.Policy) {
		g := byID[id]
		if g == nil {
			return
		}
		addrs := make([]string, 0, g.Len())
		for _, a := range g.Addrs() {
			if a != addr {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			delete(byID, id)
			return
		}
		byID[id] = placement.Build(addrs, pol)
	})
}

// RouteV resolves the replica of peer id that owns the (instance,
// tenant) routing key in version's table, lock-free. This is THE
// send-path resolution for coordinator notifications: deterministic
// across nodes, so all notifications of one instance converge on the
// same replica's coordinator state (the AND-join counting depends on
// that), and pinned to the version an in-flight instance started on, so
// a swap never re-routes it. No fallback: a missing version reports
// false and the caller decides (host.go re-routes stale-snapshot frames,
// wrappers fault loudly).
func (d *Directory) RouteV(composite string, version uint64, id, instance, tenant string) (string, bool) {
	s := d.snap.Load()
	g, ok := s.comps[composite].table(version)[id]
	if !ok {
		return "", false
	}
	return g.Pick(tenant, instance, s.policy)
}

// LookupV resolves the canonical first replica of peer id in version's
// table without taking any lock. For singleton peers (the wrapper);
// replicated peers are resolved with RouteV.
func (d *Directory) LookupV(composite string, version uint64, id string) (string, bool) {
	g, ok := d.snap.Load().comps[composite].table(version)[id]
	if !ok {
		return "", false
	}
	return g.First()
}

// PeerReplicas returns a copy of the full peer->replicas (sorted) map
// of version's table — what deployers push to remote hosts.
func (d *Directory) PeerReplicas(composite string, version uint64) map[string][]string {
	byID := d.snap.Load().comps[composite].table(version)
	out := make(map[string][]string, len(byID))
	for id, g := range byID {
		out[id] = append([]string(nil), g.Addrs()...)
	}
	return out
}
