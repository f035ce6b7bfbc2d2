// Package controlplane is the SELF-SERV service deployer's one rollout
// algorithm: it rolls a composite's compiled routing plan and replica
// directory out to a fleet of hosts and flips the fleet to the new plan
// version only after every reachable host holds the complete snapshot
// (validate-then-swap). A host is an Admin: a hostd daemon over the
// hostapi HTTP protocol (New), or an engine.Host in process
// (hostapi.Node, which core.Platform joins per host).
//
// The control plane is a pure pusher. It sits on the ADMIN surface
// only: executions route peer-to-peer through the coordinators'
// transport and never consult the control plane, so hosts keep serving
// on their last-known-good configuration when the control plane is
// slow, partitioned, or dead (AdminCalls pins that property in tests,
// the same way the scale-out benchmark pins zero central RPCs).
//
// A rollout is version-stamped end to end:
//
//  1. Prepare: generate, validate and COMPILE the plan locally, once (a
//     chart that does not compile never touches a host), then stamp it
//     with a version above this control plane's last and the fleet's
//     newest (hostapi.Info.Versions): a restarted control plane reuses
//     none.
//  2. Apply: install every state's table on every reachable host of its
//     service, push the version-stamped replica directory, and only
//     then Activate the version fleet-wide. Each push is atomic per
//     host and hosts reject stale (older-version) pushes, so a retrying
//     or racing control plane can never regress a host.
//
// A host that cannot be reached, times out (adminTimeout) or refuses a
// push is skipped, not fatal: it keeps serving the previous version
// (data-plane autonomy), is in none of the release's replica sets, and
// frames that land on it for a version it never learned are re-routed
// one hop by the engine's stale-snapshot path. Apply fails — activating
// nothing, leaving the whole fleet on last-known-good — only when a
// state would end up with zero replicas. In process no skip can happen:
// every host shares one registry, so an install on a host that lists
// the service cannot fail, and a service no host lists is the
// zero-replica case (docs/scaleout.md, "Deploy path").
package controlplane

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/hostapi"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/statechart"
)

// Admin is one host's administration surface: the calls a rollout makes
// on it. hostapi.Client implements it over HTTP (a hostd daemon),
// hostapi.Node in process (core.Platform's hosts).
type Admin interface {
	// Addr identifies the host in Release.Activated, Release.Skipped and
	// errors: an admin URL, or an in-process host's coordinator address.
	Addr() string
	Info() (*hostapi.Info, error)
	// Install registers a state's coordinator under the table's version.
	Install(composite string, table *routing.CompiledTable) error
	Uninstall(composite, state string, version uint64) error
	// PushDirectory stages the version's replica sets; hostapi.ErrStale
	// when the host already applied a newer one.
	PushDirectory(composite string, version uint64, peers map[string][]string) error
	// Activate makes version the one new instances start on;
	// hostapi.ErrStale when the host's current version is newer.
	Activate(composite string, version uint64) error
	// Retire drops a drained version's coordinators and routes.
	Retire(composite string, version uint64) error
	// Recover replays the host's journal; RecoveryStatus reports the
	// last replay without running one.
	Recover(ctx context.Context) (*hostapi.RecoveryStatus, error)
	RecoveryStatus() (*hostapi.RecoveryStatus, error)
}

// adminTimeout bounds each admin request New's clients make, except a
// journal replay (Admin.Recover), which its caller's context bounds: a
// hung daemon is skipped, never waited on forever. Tests lower it.
var adminTimeout = 10 * time.Second

// Release is one versioned rollout of a composite. Prepare fills the
// plan fields; Apply fills the fleet fields.
type Release struct {
	// Composite is the statechart name.
	Composite string
	// Version is the plan version stamped on every table, directory
	// push, and message of this release.
	Version uint64
	// Plan is the validated declarative routing plan (version-stamped).
	Plan *routing.Plan
	// Compiled is the plan's compiled execution form: what the release's
	// wrapper executes, and the tables Apply installs on every host.
	Compiled *routing.CompiledPlan
	// Peers is the replica directory pushed to the fleet: state ID (and
	// the wrapper ID) to coordinator transport addresses.
	Peers map[string][]string
	// Activated lists the hosts (Admin.Addr) now serving this version.
	Activated []string
	// Skipped records hosts left on their last-known-good config and
	// why (unreachable, push rejected). They are not part of this
	// release's replica sets.
	Skipped map[string]error
}

// ControlPlane pushes releases to the hosts that joined it.
type ControlPlane struct {
	calls atomic.Uint64

	mu sync.Mutex // lockorder:controlplane — guards everything below; never held across admin calls
	// hosts is the fleet in join order (deterministic iteration for
	// tests and error reports).
	hosts []Admin
	// versions allocates monotonic plan versions per composite.
	versions map[string]uint64
	// lastGood is the newest fully-applied release per composite.
	lastGood map[string]*Release
}

// New builds a control plane over the given hostapi admin URLs, each
// joined as a Client whose requests AdminCalls counts. No host is
// contacted until Prepare.
func New(adminURLs ...string) *ControlPlane {
	cp := &ControlPlane{versions: map[string]uint64{}, lastGood: map[string]*Release{}}
	client := &http.Client{Transport: countingTransport{&cp.calls, http.DefaultTransport}, Timeout: adminTimeout}
	for _, u := range adminURLs {
		cp.Join(&hostapi.Client{BaseURL: u, HTTPClient: client})
	}
	return cp
}

// Join adds a host to the fleet; later releases roll out to it too. A
// second admin with an Addr already in the fleet is ignored.
func (cp *ControlPlane) Join(a Admin) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if !slices.ContainsFunc(cp.hosts, func(h Admin) bool { return h.Addr() == a.Addr() }) {
		cp.hosts = append(cp.hosts, a)
	}
}

// fleet snapshots the joined hosts.
func (cp *ControlPlane) fleet() []Admin {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return slices.Clone(cp.hosts)
}

// countingTransport counts every admin request the control plane
// issues. Tests assert the count stays flat while instances execute:
// the control plane is never in the hot path.
type countingTransport struct {
	n    *atomic.Uint64
	base http.RoundTripper
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return t.base.RoundTrip(r)
}

// AdminCalls reports the total admin requests New's clients issued so
// far (including failed ones). Executions must never move this counter.
func (cp *ControlPlane) AdminCalls() uint64 { return cp.calls.Load() }

// LastKnownGood returns the newest fully-applied release of the
// composite, or nil if none has been applied.
func (cp *ControlPlane) LastKnownGood(composite string) *Release {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.lastGood[composite]
}

// Prepare compiles the chart once (routing.Compile), before any host is
// asked anything, then stamps it with a version above this control
// plane's last one and the newest any reachable host has accepted.
// Nothing is pushed, and a chart that cannot deploy reaches no host; the
// caller gets the compiled plan early enough to start a version-pinned
// wrapper before Apply announces its address.
func (cp *ControlPlane) Prepare(sc *statechart.Statechart) (*Release, error) {
	compiled, err := routing.Compile(sc)
	if err != nil {
		return nil, err
	}
	var version uint64 // the fleet is the version authority
	for _, h := range cp.fleet() {
		if info, err := h.Info(); err == nil {
			version = max(version, info.Versions[sc.Name])
		}
	}
	cp.mu.Lock()
	version = max(cp.versions[sc.Name], version) + 1
	cp.versions[sc.Name] = version
	cp.mu.Unlock()
	compiled.SetVersion(version)
	return &Release{
		Composite: sc.Name,
		Version:   version,
		Plan:      compiled.Plan,
		Compiled:  compiled,
		Skipped:   map[string]error{},
	}, nil
}

// Route seeds a wrapper's directory with an applied release's peers and
// makes its version the directory's current one.
func (rel *Release) Route(dir *engine.Directory) {
	for id, addrs := range rel.Peers {
		dir.SetReplicasV(rel.Composite, rel.Version, id, addrs)
	}
	dir.SetCurrent(rel.Composite, rel.Version)
}

// member is one host taking part in an Apply.
type member struct {
	admin     Admin
	coordAddr string
	services  map[string]bool
	installed []string // state IDs, in install order
}

// uninstall unwinds the member's installs of the release, newest first.
// Best-effort: a host being unwound never activates the version, so a
// coordinator an unwind misses is never routed to.
func (m *member) uninstall(rel *Release) {
	for i := len(m.installed) - 1; i >= 0; i-- {
		_ = m.admin.Uninstall(rel.Composite, m.installed[i], rel.Version)
	}
	m.installed = nil
}

// Apply rolls the prepared release out: every state's compiled table to
// every reachable host of its service, the version-stamped replica
// directory to the whole fleet, then a fleet-wide Activate. wrapperAddr,
// when non-empty, is published as the release's wrapper endpoint.
//
// One failure rule: a host that is unreachable or refuses a push lands
// in rel.Skipped, keeps serving last-known-good, and is in no replica
// set of the release. Apply returns an error — without activating the
// version anywhere, every install unwound — only when some state would
// have zero replicas, or no host activated.
func (cp *ControlPlane) Apply(rel *Release, wrapperAddr string) error {
	if rel.Skipped == nil {
		rel.Skipped = map[string]error{}
	}
	// Discover each host's services and coordinator address. A host
	// that fails Info is skipped for the whole release.
	var fleet []*member
	for _, h := range cp.fleet() {
		info, err := h.Info()
		if err != nil {
			rel.Skipped[h.Addr()] = err
			continue
		}
		services := make(map[string]bool, len(info.Services))
		for _, svc := range info.Services {
			services[svc] = true
		}
		fleet = append(fleet, &member{admin: h, coordAddr: info.CoordAddr, services: services})
	}
	unwind := func() {
		for _, m := range fleet {
			m.uninstall(rel)
		}
	}

	ids := slices.Sorted(maps.Keys(rel.Compiled.Tables))
	for _, id := range ids {
		tbl := rel.Compiled.Tables[id]
		for _, m := range fleet {
			if !m.services[tbl.Service] || rel.Skipped[m.admin.Addr()] != nil {
				continue
			}
			if err := m.admin.Install(rel.Composite, tbl); err != nil {
				// Drop the whole host, not just this state: a host
				// holding half a version must never activate it.
				rel.Skipped[m.admin.Addr()] = err
				m.uninstall(rel)
				continue
			}
			m.installed = append(m.installed, id)
		}
	}
	// The replica sets come from the hosts still in the release: one
	// skipped after its first installs took none of them along.
	peers := map[string][]string{}
	for _, m := range fleet {
		for _, id := range m.installed {
			peers[id] = append(peers[id], m.coordAddr)
		}
	}
	for _, id := range ids {
		if len(peers[id]) == 0 {
			unwind()
			return fmt.Errorf("controlplane: %s v%d: state %q (service %q) has no reachable replica; fleet stays on last-known-good",
				rel.Composite, rel.Version, id, rel.Compiled.Tables[id].Service)
		}
	}
	if wrapperAddr != "" {
		peers[message.WrapperID] = []string{wrapperAddr}
	}
	rel.Peers = peers

	// Push the directory, then activate — only on hosts that hold their
	// complete slice of the release. Both pushes are version-stamped;
	// the host rejects anything older than what it already applied.
	for _, m := range fleet {
		addr := m.admin.Addr()
		if rel.Skipped[addr] != nil {
			continue
		}
		if err := m.admin.PushDirectory(rel.Composite, rel.Version, peers); err != nil {
			rel.Skipped[addr] = err
			continue
		}
		if err := m.admin.Activate(rel.Composite, rel.Version); err != nil {
			rel.Skipped[addr] = err
			continue
		}
		rel.Activated = append(rel.Activated, addr)
	}
	if len(rel.Activated) == 0 {
		unwind()
		return fmt.Errorf("controlplane: %s v%d: no host activated the release; fleet stays on last-known-good", rel.Composite, rel.Version)
	}
	cp.mu.Lock()
	cp.lastGood[rel.Composite] = rel
	cp.mu.Unlock()
	return nil
}

// Rollout is Prepare followed by Apply — the one-call path when the
// wrapper address is already known (or there is no remote wrapper).
func (cp *ControlPlane) Rollout(sc *statechart.Statechart, wrapperAddr string) (*Release, error) {
	rel, err := cp.Prepare(sc)
	if err != nil {
		return nil, err
	}
	if err := cp.Apply(rel, wrapperAddr); err != nil {
		return nil, err
	}
	return rel, nil
}

// Recover replays the durability journal on every host of the fleet —
// the second half of recovery-aware activation. The restart playbook
// for a durable fleet (docs/durability.md) is: bring the daemons back
// up over their journal directories, Apply (or Rollout) the composite
// so every host holds its tables and the release is ACTIVATED, then
// Recover so each daemon replays its journal into live coordinators.
// Replay before activation would rebuild instances with nowhere to
// land; the order is enforced by convention here, by commit-point
// replay idempotency on the daemon. ctx bounds the replays.
//
// Journal-less hosts are skipped, not fatal: a mixed fleet recovers
// whatever was durable. Unreachable hosts and failed replays are
// collected into the returned error; the per-host outcomes are in the
// returned map regardless.
func (cp *ControlPlane) Recover(ctx context.Context) (map[string]*hostapi.RecoveryStatus, error) {
	hosts := cp.fleet()
	statuses := make(map[string]*hostapi.RecoveryStatus, len(hosts))
	var errs []error
	for _, h := range hosts {
		st, err := h.Recover(ctx)
		if st != nil {
			statuses[h.Addr()] = st
		}
		if err != nil {
			if st == nil {
				// Distinguish "runs journal-less" (refused with no status)
				// from a real failure by probing the status; an
				// unreachable host fails that too.
				if probe, perr := h.RecoveryStatus(); perr == nil && !probe.Configured {
					statuses[h.Addr()] = probe
					continue
				}
			}
			errs = append(errs, fmt.Errorf("%s: %w", h.Addr(), err))
		}
	}
	return statuses, errors.Join(errs...)
}

// Retire drops a drained version from the fleet (coordinators and
// routes). Best-effort: unreachable hosts are collected into the
// returned error but do not stop the sweep — they will reject nothing,
// they simply never learn, and their stale coordinators go when the
// host restarts or a later retire reaches them.
func (cp *ControlPlane) Retire(composite string, version uint64) error {
	var errs []error
	for _, h := range cp.fleet() {
		if err := h.Retire(composite, version); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
