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
	"selfserv/internal/placement"
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
	chart, hosts, states := chain2Fleet(t)
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

// chain2Fleet writes Chain(2) to a chart file and starts two
// hostd-shaped daemons over loopback TCP, each hosting svc1 and svc2. It
// returns the chart's path, the -host flags naming the daemons, and a
// probe of what each daemon's host lists for Chain2.
func chain2Fleet(t *testing.T) (chart string, hosts []string, states func() [][]string) {
	t.Helper()
	chart = filepath.Join(t.TempDir(), "chain2.xml")
	data, err := statechart.MarshalXML(workload.Chain(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(chart, data, 0o644); err != nil {
		t.Fatal(err)
	}
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
	return chart, hosts, func() [][]string {
		var out [][]string
		for _, h := range daemons {
			out = append(out, h.States()["Chain2"])
		}
		return out
	}
}

// TestRunRefusedForAnotherPolicy: the fleet keeps the placement policy
// its first release shipped. A deploy with a dedicated cell, then a run
// without -placement: the run activates nowhere, its error names the
// policy, and both daemons still list the deploy's s1 and s2. The name
// comes from each daemon's 409, which Apply's error joins: a refusal
// that said only "no host activated the release" would not say why.
func TestRunRefusedForAnotherPolicy(t *testing.T) {
	chart, hosts, states := chain2Fleet(t)
	var out bytes.Buffer
	if err := cmdDeploy(append([]string{chart, "-placement", `{"dedicated":{"visa":1}}`}, hosts...), &out); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	err := cmdRun(append([]string{chart, "-in", "x=0"}, hosts...), &out)
	if err == nil || !strings.Contains(err.Error(), "placement") || !strings.Contains(err.Error(), `{"dedicated":{"visa":1}}`) {
		t.Fatalf("run without -placement: err = %v, want one naming the fleet's placement policy", err)
	}
	for i, got := range states() {
		if !slices.Equal(got, []string{"s1", "s2"}) {
			t.Fatalf("daemon %d lists Chain2 states %v after the refused run, want the deploy's [s1 s2]", i, got)
		}
	}
}

func TestParsePlacement(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want placement.Policy // compared with Equal when ok
		ok   bool
	}{
		{`{}`, placement.Policy{}, true},
		{`{"shardSize":2,"tenants":{"acme":3},"dedicated":{"visa":1}}`,
			placement.Policy{ShardSize: 2, Tenants: map[string]int{"acme": 3}, Dedicated: map[string]int{"visa": 1}}, true},
		{`{"dedicated":{"visa":1}`, placement.Policy{}, false},   // malformed JSON
		{`visa=1`, placement.Policy{}, false},                    // the old cell spec
		{`{"cells":{"visa":1}}`, placement.Policy{}, false},      // unknown field
		{`{"dedicated":{"visa":0}}`, placement.Policy{}, false},  // an empty cell
		{`{"dedicated":{"visa":-1}}`, placement.Policy{}, false}, // a negative cell
	} {
		got, err := parsePlacement(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("parsePlacement(%s): err = %v, want ok %v", tc.in, err, tc.ok)
		} else if tc.ok && !got.Equal(tc.want) {
			t.Errorf("parsePlacement(%s) = %+v, want %+v", tc.in, got, tc.want)
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
