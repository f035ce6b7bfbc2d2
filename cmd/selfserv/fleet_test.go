package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"selfserv/internal/engine"
	"selfserv/internal/hostapi"
	"selfserv/internal/service"
	"selfserv/internal/statechart"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// TestRunAndDeployDriveTheControlPlane is the operator drill: two
// hostd-shaped daemons over loopback TCP, each hosting svc1 and svc2, so
// every state of Chain(2) has two replicas. Two `selfserv run`s and one
// `selfserv deploy` get versions 1, 2 and 3 from the fleet, and each run
// prints x = 2. Before the CLI drove the control plane, every deploy and
// run pushed version 0 and overwrote whichever version was live. A run
// ends its version (controlplane.Drain), so no daemon holds a Chain2
// coordinator after it; a deploy's version stays on both.
func TestRunAndDeployDriveTheControlPlane(t *testing.T) {
	chart := filepath.Join(t.TempDir(), "chain2.xml")
	data, err := statechart.MarshalXML(workload.Chain(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(chart, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var hosts []string
	var daemons []*engine.Host
	for i := 0; i < 2; i++ {
		reg := service.NewRegistry()
		workload.RegisterChainProviders(reg, 2, service.SimulatedOptions{})
		net := transport.NewTCP()
		t.Cleanup(func() { net.Close() })
		dir := engine.NewDirectory()
		h, err := engine.NewHost(net, "127.0.0.1:0", reg, dir, engine.HostOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		admin := httptest.NewServer(hostapi.NewServer(hostapi.NewNode(h, dir, reg.Names, nil)))
		t.Cleanup(admin.Close)
		hosts = append(hosts, "-host", admin.URL)
		daemons = append(daemons, h)
	}
	// states reports what each daemon's host lists for Chain2.
	states := func() [][]string {
		var out [][]string
		for _, h := range daemons {
			out = append(out, h.States()["Chain2"])
		}
		return out
	}

	for _, version := range []string{"v1", "v2"} {
		var out bytes.Buffer
		if err := cmdRun(append([]string{chart, "-in", "x=0"}, hosts...), &out); err != nil {
			t.Fatalf("run for %s: %v", version, err)
		}
		if !strings.Contains(out.String(), "rolled out Chain2 "+version+"\n") {
			t.Fatalf("run output does not report %s:\n%s", version, out.String())
		}
		if got := line(out.String(), "x"); !slices.Equal(got, []string{"x", "2"}) {
			t.Fatalf("run %s prints x as %q:\n%s", version, got, out.String())
		}
		// "installed s1 on addr1, addr2": both replicas hold the state.
		if got := line(out.String(), "installed", "s1"); len(got) != 5 {
			t.Fatalf("run %s installs s1 as %q, want it on both daemons:\n%s", version, got, out.String())
		}
		for i, got := range states() {
			if len(got) != 0 {
				t.Fatalf("daemon %d still lists Chain2 states %v after run %s returned", i, got, version)
			}
		}
	}
	var out bytes.Buffer
	if err := cmdDeploy(append([]string{chart}, hosts...), &out); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if !strings.Contains(out.String(), "rolled out Chain2 v3\n") {
		t.Fatalf("deploy output does not report v3:\n%s", out.String())
	}
	for i, got := range states() {
		if !slices.Equal(got, []string{"s1", "s2"}) {
			t.Fatalf("daemon %d lists Chain2 states %v after deploy, want [s1 s2]", i, got)
		}
	}
}

// line returns the fields of the first line of out that starts with the
// given fields.
func line(out string, prefix ...string) []string {
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) >= len(prefix) && slices.Equal(f[:len(prefix)], prefix) {
			return f
		}
	}
	return nil
}
