package controlplane

// Apply's install, skip and unwind rules over fake admins: no network,
// every call recorded.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"selfserv/internal/engine"
	"selfserv/internal/hostapi"
	"selfserv/internal/placement"
	"selfserv/internal/routing"
	"selfserv/internal/workload"
)

// fakeAdmin records installs, unwinds and activations.
type fakeAdmin struct {
	addr        string
	services    []string
	failOn      string                   // state whose Install fails
	installed   []string                 // composite/state, in order
	tables      []*routing.CompiledTable // what Install was handed, in order
	uninstalled []string
	activated   []uint64
}

func (f *fakeAdmin) Addr() string { return f.addr }

func (f *fakeAdmin) Info() (*hostapi.Info, error) {
	return &hostapi.Info{CoordAddr: f.addr, Services: f.services}, nil
}

func (f *fakeAdmin) Install(composite string, t *routing.CompiledTable) error {
	if t.State == f.failOn {
		return errors.New("disk full")
	}
	f.installed = append(f.installed, composite+"/"+t.State)
	f.tables = append(f.tables, t)
	return nil
}

func (f *fakeAdmin) Uninstall(composite, state string, _ uint64) error {
	f.uninstalled = append(f.uninstalled, composite+"/"+state)
	return nil
}

func (f *fakeAdmin) PushDirectory(string, uint64, map[string][]string, placement.Policy) error {
	return nil
}

func (f *fakeAdmin) Activate(_ string, version uint64) error {
	f.activated = append(f.activated, version)
	return nil
}

func (f *fakeAdmin) Retire(string, uint64) error { return nil }

func (f *fakeAdmin) Recover(context.Context) (engine.RecoveryStats, error) {
	return engine.RecoveryStats{}, hostapi.ErrNoJournal
}

// live returns the installs that were not unwound.
func (f *fakeAdmin) live() []string {
	gone := map[string]int{}
	for _, u := range f.uninstalled {
		gone[u]++
	}
	var out []string
	for _, in := range f.installed {
		if gone[in] > 0 {
			gone[in]--
			continue
		}
		out = append(out, in)
	}
	return out
}

func fleetOf(admins ...*fakeAdmin) *ControlPlane {
	cp := New(placement.Policy{})
	for _, a := range admins {
		cp.Join(a)
	}
	return cp
}

func TestApplyInstallsEveryState(t *testing.T) {
	sc := workload.Travel()
	h := &fakeAdmin{addr: "node-1", services: sc.Services()}
	rel, err := fleetOf(h).Rollout(sc, "")
	if err != nil {
		t.Fatalf("Rollout: %v", err)
	}
	if len(h.installed) != len(rel.Plan.Tables) || len(h.installed) != 5 {
		t.Fatalf("installed %v for a %d-state plan", h.installed, len(rel.Plan.Tables))
	}
	for _, ct := range h.tables {
		if rel.Plan.Tables[ct.State] == nil {
			t.Errorf("installed %s, which the plan does not have", ct.State)
		}
	}
}

func TestApplyInstallsOnEveryReplica(t *testing.T) {
	h1 := &fakeAdmin{addr: "node-1", services: []string{"svc1"}}
	h2 := &fakeAdmin{addr: "node-2", services: []string{"svc1", "svc2"}}
	rel, err := fleetOf(h1, h2).Rollout(workload.Chain(2), "")
	if err != nil {
		t.Fatalf("Rollout: %v", err)
	}
	if got1, got2 := strings.Join(h1.installed, " "), strings.Join(h2.installed, " "); got1 != "Chain2/s1" || got2 != "Chain2/s1 Chain2/s2" {
		t.Fatalf("installed: node-1 %q, node-2 %q; want s1 on both replicas and s2 on node-2", got1, got2)
	}
	if got := strings.Join(rel.Peers["s1"], " "); got != "node-1 node-2" {
		t.Fatalf("s1 replicas = %q, want both nodes", got)
	}
}

// TestApplyWithAnUnplacedStateLeavesNothingInstalled: a state no host
// serves has zero replicas, so the rollout fails, activates nothing and
// unwinds every install it made.
func TestApplyWithAnUnplacedStateLeavesNothingInstalled(t *testing.T) {
	h := &fakeAdmin{addr: "node-1", services: []string{"svc1", "svc3"}} // svc2 unplaced
	_, err := fleetOf(h).Rollout(workload.Chain(3), "")
	if err == nil || !strings.Contains(err.Error(), `state "s2" (service "svc2") has no reachable replica`) {
		t.Fatalf("err = %v", err)
	}
	if live := h.live(); len(live) != 0 {
		t.Fatalf("partial install left behind: %v", live)
	}
	if len(h.activated) != 0 {
		t.Fatalf("activated %v", h.activated)
	}
}

// TestApplySurfacesInstallErrors: the install error of a skipped host is
// the reason Release.Skipped records for it.
func TestApplySurfacesInstallErrors(t *testing.T) {
	h := &fakeAdmin{addr: "node-1", services: []string{"svc1", "svc2"}, failOn: "s2"}
	cp := fleetOf(h)
	rel, err := cp.Prepare(workload.Chain(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Apply(rel, ""); err == nil {
		t.Fatal("Apply succeeded past its only replica's failing install")
	}
	if err := rel.Skipped["node-1"]; err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Skipped = %v", rel.Skipped)
	}
}

// TestApplyUnwindsOnFailure pins the no-side-effects contract: when the
// only replica of a state fails its install, every state installed up
// to that point — across ALL hosts — is uninstalled again, and no host
// activates the version.
func TestApplyUnwindsOnFailure(t *testing.T) {
	h1 := &fakeAdmin{addr: "node-1", services: []string{"svc1", "svc2"}}
	h2 := &fakeAdmin{addr: "node-2", services: []string{"svc1", "svc3"}, failOn: "s3"}
	if _, err := fleetOf(h1, h2).Rollout(workload.Chain(3), ""); err == nil {
		t.Fatal("Rollout succeeded with s3's only replica failing")
	}
	for _, h := range []*fakeAdmin{h1, h2} {
		if live := h.live(); len(live) != 0 {
			t.Fatalf("%s still has %v after the unwind", h.addr, live)
		}
		if len(h.uninstalled) != len(h.installed) {
			t.Fatalf("%s: uninstalled %d of %d installs", h.addr, len(h.uninstalled), len(h.installed))
		}
		if len(h.activated) != 0 {
			t.Fatalf("%s activated %v", h.addr, h.activated)
		}
	}
}

// TestApplySkipsAFailingReplica pins the one failure rule: with one of a
// state's two replicas failing its install, that host is skipped — its
// installs unwound, in no replica set — and the rollout activates on the
// other.
func TestApplySkipsAFailingReplica(t *testing.T) {
	bad := &fakeAdmin{addr: "node-1", services: []string{"svc1", "svc2"}, failOn: "s2"}
	good := &fakeAdmin{addr: "node-2", services: []string{"svc1", "svc2"}}
	rel, err := fleetOf(bad, good).Rollout(workload.Chain(2), "")
	if err != nil {
		t.Fatalf("Rollout: %v", err)
	}
	if rel.Skipped["node-1"] == nil || len(rel.Skipped) != 1 {
		t.Fatalf("Skipped = %v, want node-1 only", rel.Skipped)
	}
	if live := bad.live(); len(live) != 0 {
		t.Fatalf("skipped node-1 still has %v", live)
	}
	if len(bad.activated) != 0 || len(good.activated) != 1 {
		t.Fatalf("activated: node-1 %v, node-2 %v", bad.activated, good.activated)
	}
	for _, id := range []string{"s1", "s2"} {
		if got := strings.Join(rel.Peers[id], " "); got != "node-2" {
			t.Errorf("%s replicas = %q, want node-2 alone", id, got)
		}
	}
}

// TestApplyHandsAdminsTheCompiledTable: an admin is handed the table
// Prepare compiled, by pointer — one compilation per release — over the
// release's own declarative table, version stamp included; and a
// failed install unwinds what was installed, newest first.
func TestApplyHandsAdminsTheCompiledTable(t *testing.T) {
	sc := workload.Chain(3)
	h := &fakeAdmin{addr: "node-1", services: []string{"svc1", "svc2", "svc3"}}
	rel, err := fleetOf(h).Rollout(sc, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.tables) != 3 {
		t.Fatalf("admin was handed %d tables, want 3", len(h.tables))
	}
	for _, ct := range h.tables {
		if ct != rel.Compiled.Tables[ct.State] || ct.Table != rel.Plan.Tables[ct.State] || ct.Version != rel.Version || ct.Table.Version != rel.Version {
			t.Errorf("state %s: admin got compiled table %p v%d over source %p v%d, want the release's %p over %p v%d",
				ct.State, ct, ct.Version, ct.Table, ct.Table.Version, rel.Compiled.Tables[ct.State], rel.Plan.Tables[ct.State], rel.Version)
		}
	}

	failing := &fakeAdmin{addr: "node-2", services: []string{"svc1", "svc2", "svc3"}, failOn: "s3"}
	if _, err := fleetOf(failing).Rollout(sc, ""); err == nil {
		t.Fatal("rollout succeeded past a failing install")
	}
	if got, want := strings.Join(failing.uninstalled, " "), "Chain3/s2 Chain3/s1"; got != want {
		t.Fatalf("unwind order = %q, want %q", got, want)
	}
}

// TestRolloutRejectsInvalidChart: a chart that fails validation is
// refused before any admin is asked anything.
func TestRolloutRejectsInvalidChart(t *testing.T) {
	sc := workload.Chain(1)
	sc.Find("s1").Operation = ""
	h := &fakeAdmin{addr: "node-1", services: []string{"svc1"}}
	if _, err := fleetOf(h).Rollout(sc, ""); err == nil {
		t.Fatal("invalid chart rolled out")
	}
	if len(h.installed) != 0 {
		t.Fatalf("installed %v", h.installed)
	}
}
