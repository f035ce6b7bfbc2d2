package controlplane

// The failure rule over real daemons: a host that refuses a push or
// never answers is skipped, the release activates on the rest, and
// executions complete.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/hostapi"
	"selfserv/internal/placement"
	"selfserv/internal/routing"
	"selfserv/internal/service"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// newReplica is a daemon hosting both services of Chain(2), its admin
// handler wrapped by wrap.
func newReplica(t *testing.T, net transport.Network, addr string, wrap func(http.Handler) http.Handler) *daemon {
	t.Helper()
	reg := service.NewRegistry()
	workload.RegisterChainProviders(reg, 2, service.SimulatedOptions{})
	dir := engine.NewDirectory()
	h, err := engine.NewHost(net, addr, reg, dir, engine.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	admin := httptest.NewServer(wrap(hostapi.NewServer(hostapi.NewNode(h, dir, reg.Names, nil))))
	t.Cleanup(admin.Close)
	return &daemon{host: h, dir: dir, reg: reg, admin: admin}
}

// refuseInstall answers 500 to the install of one state's table.
func refuseInstall(state string) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/install" {
				body, _ := io.ReadAll(r.Body)
				if tbl, err := routing.UnmarshalTable(body); err == nil && tbl.State == state {
					http.Error(w, "refused", http.StatusInternalServerError)
					return
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestSkippedHostLeavesTheReplicaSets: two daemons both host Chain(2),
// and the second refuses s2's table. It is skipped and its s1 install
// unwound, so it must be in no replica set either. Before the replica
// sets were built from the hosts still in the release, the pushed peers
// were s1:[coord-a coord-b] s2:[coord-a]: instances routed to coord-b's
// s1, which no longer had a coordinator, and the first Execute to land
// there ran to its 15 s deadline.
func TestSkippedHostLeavesTheReplicaSets(t *testing.T) {
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	pass := func(h http.Handler) http.Handler { return h }
	a := newReplica(t, net, "coord-a", pass)
	b := newReplica(t, net, "coord-b", refuseInstall("s2"))
	cp := New(placement.Policy{}, a.admin.URL, b.admin.URL)
	rel, err := cp.Prepare(workload.Chain(2))
	if err != nil {
		t.Fatal(err)
	}
	w := deployWrapper(t, cp, net, "wrapper-1", rel)
	if rel.Skipped[b.admin.URL] == nil || len(rel.Activated) != 1 {
		t.Fatalf("Skipped = %v, Activated = %v; want coord-b skipped and coord-a live", rel.Skipped, rel.Activated)
	}
	for _, id := range []string{"s1", "s2"} {
		if got := strings.Join(rel.Peers[id], " "); got != "coord-a" {
			t.Errorf("%s replicas = %q, want coord-a alone", id, got)
		}
	}
	for i := 0; i < 8; i++ {
		if got := execute(t, w); got != "2" {
			t.Fatalf("execution %d: x = %q, want 2", i, got)
		}
	}
}

// TestAdminRequestsEscapeNames rolls out, executes and retires a chart
// whose name holds '&', a space and '='. Before every admin query was
// built with url.Values, the name went into the query string raw, and
// Apply failed with the misleading `state "s1" (service "svc1") has no
// reachable replica`, nothing installed.
func TestAdminRequestsEscapeNames(t *testing.T) {
	sc := workload.Chain(2)
	sc.Name = "R&D x=1"
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	d1 := newDaemon(t, net, "coord-1", 1)
	d2 := newDaemon(t, net, "coord-2", 2)
	cp := New(placement.Policy{}, d1.admin.URL, d2.admin.URL)
	rel, err := cp.Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	w := deployWrapper(t, cp, net, "wrapper-1", rel)
	if got := d1.host.States()[sc.Name]; len(got) != 1 || got[0] != "s1" {
		t.Fatalf("coord-1 states = %v, want %q: [s1]", d1.host.States(), sc.Name)
	}
	if got := d1.dir.Current(sc.Name); got != rel.Version {
		t.Fatalf("coord-1 current version of %q = %d, want %d", sc.Name, got, rel.Version)
	}
	if got := execute(t, w); got != "2" {
		t.Fatalf("x = %q, want 2", got)
	}
	if err := cp.Retire(sc.Name, rel.Version); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*daemon{d1, d2} {
		if got := d.host.States(); len(got) != 0 {
			t.Fatalf("%s still holds %v after the retire", d.host.Addr(), got)
		}
	}
}

// TestHungDaemonIsSkipped: a daemon whose admin handler never answers
// lands in Skipped and the release activates on the others. Before admin
// requests had a timeout, Prepare's /info to it blocked forever, and so
// did the rollout.
func TestHungDaemonIsSkipped(t *testing.T) {
	SetAdminTimeout(t, 100*time.Millisecond)
	sc := workload.Chain(2)
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	d1 := newDaemon(t, net, "coord-1", 1)
	d2 := newDaemon(t, net, "coord-2", 2)
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(release) }) // runs first: Close waits for handlers
	cp := New(placement.Policy{}, d1.admin.URL, hung.URL, d2.admin.URL)

	type result struct {
		rel *Release
		w   *engine.Wrapper
		err error
	}
	done := make(chan result, 1)
	wdir := engine.NewDirectory()
	go func() {
		var res result
		if res.rel, res.err = cp.Prepare(sc); res.err == nil {
			if res.w, res.err = engine.NewWrapper(net, "wrapper-1", wdir, res.rel.Compiled, engine.HostOptions{}); res.err == nil {
				res.err = cp.Apply(res.rel, res.w.Addr())
			}
		}
		done <- res
	}()
	var res result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("rollout still blocked on the hung daemon after 10s")
	}
	if res.w != nil {
		t.Cleanup(func() { res.w.Close() })
	}
	if res.err != nil {
		t.Fatalf("rollout: %v", res.err)
	}
	rel := res.rel
	if rel.Skipped[hung.URL] == nil {
		t.Fatalf("Skipped = %v, want the hung daemon", rel.Skipped)
	}
	if got := strings.Join(rel.Activated, " "); got != d1.admin.URL+" "+d2.admin.URL {
		t.Fatalf("Activated = %v, want both live daemons", rel.Activated)
	}
	rel.Route(wdir)
	if got := execute(t, res.w); got != "2" {
		t.Fatalf("x = %q, want 2", got)
	}
}
