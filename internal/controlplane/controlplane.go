// Package controlplane is a minimal SELF-SERV control plane: it rolls a
// composite's validated routing plan and replica directory out to a
// fleet of host daemons over the hostapi admin protocol and flips the
// fleet to the new plan version only after every reachable host holds
// the complete snapshot (validate-then-swap).
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
//  1. Prepare: generate, validate and COMPILE the plan locally (a chart
//     that does not compile never touches a host), then stamp it with a
//     version above this control plane's last and the fleet's newest
//     (hostapi.Info.Versions): a restarted control plane reuses none.
//  2. Apply: upload every state's table to every reachable host of its
//     service, push the version-stamped replica directory, and only
//     then Activate the version fleet-wide. Each push is atomic per
//     host and hosts reject stale (older-version) pushes with 409, so
//     a retrying or racing control plane can never regress a host.
//
// A host that cannot be reached is skipped, not fatal: it keeps
// serving the previous version (data-plane autonomy) and frames that
// land on it for a version it never learned are re-routed one hop by
// the engine's stale-snapshot path. Apply fails — activating nothing,
// leaving the whole fleet on last-known-good — only when a state would
// end up with zero replicas.
package controlplane

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"selfserv/internal/deployer"
	"selfserv/internal/engine"
	"selfserv/internal/hostapi"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/statechart"
)

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
	// Compiled is the plan's compiled execution form — what a wrapper
	// for this release executes (engine.NewWrapper).
	Compiled *routing.CompiledPlan
	// Peers is the replica directory pushed to the fleet: state ID (and
	// the wrapper ID) to coordinator transport addresses.
	Peers map[string][]string
	// Activated lists the admin URLs now serving this version.
	Activated []string
	// Skipped records hosts left on their last-known-good config and
	// why (unreachable, push rejected). They are not part of this
	// release's replica sets.
	Skipped map[string]error
}

// ControlPlane pushes releases to a fixed fleet of hostapi daemons.
type ControlPlane struct {
	calls atomic.Uint64

	mu sync.Mutex // lockorder:controlplane — guards versions/lastGood; never held across admin calls
	// hosts maps admin URL to its client; fixed at construction.
	hosts map[string]*hostapi.Client
	// order is the admin URLs in construction order (deterministic
	// iteration for tests and error reports).
	order []string
	// versions allocates monotonic plan versions per composite.
	versions map[string]uint64
	// lastGood is the newest fully-applied release per composite.
	lastGood map[string]*Release
}

// New builds a control plane over the given hostapi admin URLs. No
// host is contacted until Apply.
func New(adminURLs ...string) *ControlPlane {
	cp := &ControlPlane{
		hosts:    make(map[string]*hostapi.Client, len(adminURLs)),
		versions: map[string]uint64{},
		lastGood: map[string]*Release{},
	}
	for _, u := range adminURLs {
		if _, dup := cp.hosts[u]; dup {
			continue
		}
		cp.hosts[u] = &hostapi.Client{
			BaseURL:    u,
			HTTPClient: &http.Client{Transport: countingTransport{&cp.calls, http.DefaultTransport}},
		}
		cp.order = append(cp.order, u)
	}
	return cp
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

// AdminCalls reports the total admin requests issued so far (including
// failed ones). Executions must never move this counter.
func (cp *ControlPlane) AdminCalls() uint64 { return cp.calls.Load() }

// LastKnownGood returns the newest fully-applied release of the
// composite, or nil if none has been applied.
func (cp *ControlPlane) LastKnownGood(composite string) *Release {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.lastGood[composite]
}

// Prepare validates and compiles the chart locally (deployer.Prepare),
// then stamps it with a version above this control plane's last one and
// the newest any reachable host has accepted. Nothing is pushed, and a
// chart that cannot deploy reaches no host; the caller gets the compiled
// plan early enough to start a version-pinned wrapper before Apply
// announces its address.
func (cp *ControlPlane) Prepare(sc *statechart.Statechart) (*Release, error) {
	if _, err := deployer.Prepare(sc, 0); err != nil {
		return nil, err
	}
	var version uint64 // the fleet is the version authority
	for _, u := range cp.order {
		if info, err := cp.hosts[u].Info(); err == nil {
			version = max(version, info.Versions[sc.Name])
		}
	}
	cp.mu.Lock()
	version = max(cp.versions[sc.Name], version) + 1
	cp.versions[sc.Name] = version
	cp.mu.Unlock()
	compiled, err := deployer.Prepare(sc, version)
	if err != nil {
		return nil, err
	}
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

// Apply rolls the prepared release out: tables to every reachable host
// of each state's service, the version-stamped replica directory to
// the whole fleet, then a fleet-wide Activate. wrapperAddr, when
// non-empty, is published as the release's wrapper endpoint.
//
// Unreachable or rejecting hosts land in rel.Skipped and keep serving
// last-known-good. Apply returns an error — without activating the
// version anywhere — only when some state would have zero replicas.
func (cp *ControlPlane) Apply(rel *Release, wrapperAddr string) error {
	if rel.Skipped == nil {
		rel.Skipped = map[string]error{}
	}
	// Discover each host's services and coordinator address. A host
	// that fails /info is skipped for the whole release.
	type hostInfo struct {
		url       string
		client    *hostapi.Client
		coordAddr string
		services  map[string]bool
	}
	var fleet []hostInfo
	for _, u := range cp.order {
		info, err := cp.hosts[u].Info()
		if err != nil {
			rel.Skipped[u] = err
			continue
		}
		services := make(map[string]bool, len(info.Services))
		for _, svc := range info.Services {
			services[svc] = true
		}
		fleet = append(fleet, hostInfo{u, cp.hosts[u], info.CoordAddr, services})
	}

	// Upload tables. installed remembers (host, state) pairs for the
	// unwind path; peers accumulates the replica directory.
	ids := make([]string, 0, len(rel.Plan.Tables))
	for id := range rel.Plan.Tables {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	type step struct {
		client *hostapi.Client
		state  string
	}
	var installed []step
	unwind := func() {
		for i := len(installed) - 1; i >= 0; i-- {
			_ = installed[i].client.Uninstall(rel.Composite, installed[i].state, rel.Version)
		}
	}
	peers := map[string][]string{}
	for _, id := range ids {
		tbl := rel.Plan.Tables[id]
		for i := range fleet {
			h := &fleet[i]
			if !h.services[tbl.Service] || rel.Skipped[h.url] != nil {
				continue
			}
			if err := h.client.Install(rel.Composite, tbl); err != nil {
				// Drop the whole host, not just this state: a host
				// holding half a version must never activate it.
				rel.Skipped[h.url] = err
				kept := installed[:0]
				for _, st := range installed {
					if st.client != h.client {
						kept = append(kept, st)
					} else {
						_ = st.client.Uninstall(rel.Composite, st.state, rel.Version)
					}
				}
				installed = kept
				continue
			}
			installed = append(installed, step{h.client, id})
			peers[id] = append(peers[id], h.coordAddr)
		}
		if len(peers[id]) == 0 {
			unwind()
			return fmt.Errorf("controlplane: %s v%d: state %q (service %q) has no reachable replica; fleet stays on last-known-good",
				rel.Composite, rel.Version, id, tbl.Service)
		}
	}
	if wrapperAddr != "" {
		peers[message.WrapperID] = []string{wrapperAddr}
	}
	rel.Peers = peers

	// Push the directory, then activate — only on hosts that hold their
	// complete slice of the release. Both pushes are version-stamped;
	// the host rejects anything older than what it already applied.
	for i := range fleet {
		h := &fleet[i]
		if rel.Skipped[h.url] != nil {
			continue
		}
		if err := h.client.PushDirectory(rel.Composite, rel.Version, peers); err != nil {
			rel.Skipped[h.url] = err
			continue
		}
		if err := h.client.Activate(rel.Composite, rel.Version); err != nil {
			rel.Skipped[h.url] = err
			continue
		}
		rel.Activated = append(rel.Activated, h.url)
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
// replay idempotency on the daemon.
//
// Journal-less daemons (409) are skipped, not fatal: a mixed fleet
// recovers whatever was durable. Unreachable hosts and failed replays
// are collected into the returned error; the per-host outcomes are in
// the returned map regardless.
func (cp *ControlPlane) Recover() (map[string]*hostapi.RecoveryStatus, error) {
	statuses := make(map[string]*hostapi.RecoveryStatus, len(cp.order))
	var errs []error
	for _, u := range cp.order {
		st, err := cp.hosts[u].Recover()
		if st != nil {
			statuses[u] = st
		}
		if err != nil {
			if st == nil {
				// Distinguish "runs journal-less" (a clean 409 with no
				// status body) from a real failure by probing the status
				// endpoint; an unreachable host fails that too.
				if probe, perr := cp.hosts[u].RecoveryStatus(); perr == nil && !probe.Configured {
					statuses[u] = probe
					continue
				}
			}
			errs = append(errs, fmt.Errorf("%s: %w", u, err))
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
	for _, u := range cp.order {
		if err := cp.hosts[u].Retire(composite, version); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
