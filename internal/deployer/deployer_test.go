package deployer

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"selfserv/internal/routing"
	"selfserv/internal/workload"
)

// fakeHost records installs (and rollback uninstalls) without a network.
type fakeHost struct {
	addr        string
	installed   []string
	tables      []*routing.CompiledTable // what InstallCompiled was handed, in order
	uninstalled []string
	failOn      string
}

func (f *fakeHost) Addr() string { return f.addr }

func (f *fakeHost) InstallCompiled(composite string, t *routing.CompiledTable) error {
	if t.State == f.failOn {
		return fmt.Errorf("disk full")
	}
	f.installed = append(f.installed, composite+"/"+t.State)
	f.tables = append(f.tables, t)
	return nil
}

func (f *fakeHost) Uninstall(composite, state string, version uint64) {
	f.uninstalled = append(f.uninstalled, composite+"/"+state)
}

// live returns the installs that were not rolled back.
func (f *fakeHost) live() []string {
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

func TestDeployInstallsEveryState(t *testing.T) {
	sc := workload.Travel()
	h := &fakeHost{addr: "node-1"}
	placement := Placement{}
	for _, svc := range sc.Services() {
		placement[svc] = []Installer{h}
	}
	dep, err := Deploy(sc, placement)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if len(h.installed) != len(dep.Plan.Tables) || len(h.installed) != 5 {
		t.Fatalf("installed %v for a %d-state plan", h.installed, len(dep.Plan.Tables))
	}
	for _, ct := range h.tables {
		if dep.Plan.Tables[ct.State] == nil {
			t.Errorf("installed %s, which the plan does not have", ct.State)
		}
	}
}

func TestDeployInstallsOnEveryReplica(t *testing.T) {
	sc := workload.Chain(2)
	h1 := &fakeHost{addr: "node-1"}
	h2 := &fakeHost{addr: "node-2"}
	if _, err := Deploy(sc, Placement{"svc1": {h1, h2}, "svc2": {h2}}); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if got1, got2 := strings.Join(h1.installed, " "), strings.Join(h2.installed, " "); got1 != "Chain2/s1" || got2 != "Chain2/s1 Chain2/s2" {
		t.Fatalf("installed: node-1 %q, node-2 %q; want s1 on both replicas and s2 on node-2", got1, got2)
	}
}

func TestDeployChecksPlacementBeforeInstalling(t *testing.T) {
	sc := workload.Chain(3)
	h := &fakeHost{addr: "node-1"}
	// svc2 unplaced: nothing at all must be installed.
	_, err := Deploy(sc, Placement{"svc1": {h}, "svc3": {h}})
	if err == nil || !strings.Contains(err.Error(), "no placement") {
		t.Fatalf("err = %v", err)
	}
	if len(h.installed) != 0 {
		t.Fatalf("partial install happened: %v", h.installed)
	}
}

func TestDeploySurfacesInstallErrors(t *testing.T) {
	sc := workload.Chain(2)
	h := &fakeHost{addr: "node-1", failOn: "s2"}
	_, err := Deploy(sc, Placement{"svc1": {h}, "svc2": {h}})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v", err)
	}
}

// TestDeployRollsBackOnFailure pins the no-side-effects contract: when
// a replica's install fails mid-deployment, every state installed up to
// that point — across ALL hosts — is uninstalled again, newest first.
func TestDeployRollsBackOnFailure(t *testing.T) {
	sc := workload.Chain(3)
	h1 := &fakeHost{addr: "node-1"}
	h2 := &fakeHost{addr: "node-2", failOn: "s3"}
	_, err := Deploy(sc, Placement{"svc1": {h1, h2}, "svc2": {h1}, "svc3": {h2}})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v", err)
	}
	if live := h1.live(); len(live) != 0 {
		t.Fatalf("node-1 still has %v after rollback", live)
	}
	if live := h2.live(); len(live) != 0 {
		t.Fatalf("node-2 still has %v after rollback", live)
	}
	// Reverse install order: the last successful install is the first
	// rolled back.
	var all []string
	all = append(all, h1.uninstalled...)
	all = append(all, h2.uninstalled...)
	if len(all) != len(h1.installed)+len(h2.installed) {
		t.Fatalf("uninstalled %d of %d installs", len(all), len(h1.installed)+len(h2.installed))
	}
}

// TestDeployHandsInstallersTheCompiledTable: an installer has one entry
// point and it takes the table the deployer compiled. Its declarative
// source (table.Table, what crosses a process boundary) has to be the
// deployment's own plan table — same pointer, version stamp included —
// and a failed install still unwinds what was installed, newest first.
func TestDeployHandsInstallersTheCompiledTable(t *testing.T) {
	sc := workload.Chain(3)
	h := &fakeHost{addr: "node-1"}
	all := Placement{"svc1": {h}, "svc2": {h}, "svc3": {h}}
	dep, err := DeployVersion(sc, all, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.tables) != 3 {
		t.Fatalf("installer was handed %d tables, want 3", len(h.tables))
	}
	for _, ct := range h.tables {
		if ct != dep.Compiled.Tables[ct.State] || ct.Table != dep.Plan.Tables[ct.State] || ct.Table.Version != 7 {
			t.Errorf("state %s: installer got compiled table %p over source %p v%d, want the deployment's %p over %p v7",
				ct.State, ct, ct.Table, ct.Table.Version, dep.Compiled.Tables[ct.State], dep.Plan.Tables[ct.State])
		}
	}

	failing := &fakeHost{addr: "node-2", failOn: "s3"}
	if _, err := Deploy(sc, Placement{"svc1": {failing}, "svc2": {failing}, "svc3": {failing}}); err == nil {
		t.Fatal("deploy succeeded past a failing install")
	}
	if got, want := strings.Join(failing.uninstalled, " "), "Chain3/s2 Chain3/s1"; got != want {
		t.Fatalf("rollback order = %q, want %q", got, want)
	}
}

func TestDeployRejectsInvalidChart(t *testing.T) {
	sc := workload.Chain(1)
	sc.Root.Children[1].Operation = ""
	if _, err := Deploy(sc, Placement{}); err == nil {
		t.Fatal("invalid chart deployed")
	}
}

func TestWriteAndReadPlanFiles(t *testing.T) {
	dir := t.TempDir()
	plan, err := routing.Generate(workload.Travel())
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePlanFiles(dir, plan); err != nil {
		t.Fatalf("WritePlanFiles: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 1 plan file + 5 table files.
	if len(entries) != 6 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("files = %v", names)
	}
	back, err := ReadPlanFile(filepath.Join(dir, "TravelPlanner.plan.xml"))
	if err != nil {
		t.Fatalf("ReadPlanFile: %v", err)
	}
	if back.Composite != "TravelPlanner" || len(back.Tables) != 5 {
		t.Fatalf("plan = %+v", back)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped plan: %v", err)
	}
	// Individual table file parses too.
	data, err := os.ReadFile(filepath.Join(dir, "TravelPlanner.CR.table.xml"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := routing.UnmarshalTable(data)
	if err != nil || tbl.State != "CR" {
		t.Fatalf("table = %+v, %v", tbl, err)
	}
}

func TestReadPlanFileMissing(t *testing.T) {
	if _, err := ReadPlanFile(filepath.Join(t.TempDir(), "nope.xml")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}
