package controlplane

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/placement"
	"selfserv/internal/service"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// TestShippedPolicyKeepsATenantInItsCell: three daemons each host svc1
// and svc2, so every state of Chain(2) has three replicas. The policy
// {"dedicated":{"visa":1}} is given only to New, and the wrapper starts
// the way selfserv run starts one (deployWrapper). Every s1 and s2
// invocation of 100 visa executions runs on one daemon, and no acme
// execution runs there. Before the control plane shipped the policy,
// each daemon's directory held it (as a per-daemon flag set it) and the
// wrapper's directory did not: the wrapper's start hops ignored the
// cell, and on this fleet 50 of 100 visa executions ran s1 outside it
// (26 on coord-2, 24 on coord-3).
//
// A later rollout whose control plane ships another policy activates on
// no host, says why, and leaves the live version executing.
func TestShippedPolicyKeepsATenantInItsCell(t *testing.T) {
	sc := workload.Chain(2)
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	var fleet []*daemon
	var urls []string
	for i := 1; i <= 3; i++ {
		d := newReplica(t, net, fmt.Sprintf("coord-%d", i), func(h http.Handler) http.Handler { return h })
		fleet, urls = append(fleet, d), append(urls, d.admin.URL)
	}
	cp := New(placement.Policy{Dedicated: map[string]int{"visa": 1}}, urls...)
	rel, err := cp.Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	w := deployWrapper(t, cp, net, "wrapper-1", rel)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	runAs := func(tenant string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			out, err := w.Execute(ctx, map[string]string{"x": "0", engine.TenantVar: tenant})
			if err != nil || out["x"] != "2" {
				t.Fatalf("%s execution %d: out=%v err=%v, want x=2", tenant, i, out, err)
			}
		}
	}
	invoked := func(d *daemon, svc string) int64 {
		t.Helper()
		p, err := d.reg.Lookup(svc)
		if err != nil {
			t.Fatal(err)
		}
		n, _, _ := p.(*service.Simulated).Counters()
		return n
	}

	runAs("visa", 100)
	var cell *daemon
	for _, d := range fleet {
		s1, s2 := invoked(d, "svc1"), invoked(d, "svc2")
		switch {
		case s1 == 0 && s2 == 0:
		case s1 == 100 && s2 == 100 && cell == nil:
			cell = d
		default:
			t.Fatalf("%s ran s1 %d and s2 %d times for 100 visa executions; want all of them on one daemon", d.host.Addr(), s1, s2)
		}
	}
	if cell == nil {
		t.Fatal("no daemon ran the visa executions")
	}
	runAs("acme", 100)
	if s1, s2 := invoked(cell, "svc1"), invoked(cell, "svc2"); s1 != 100 || s2 != 100 {
		t.Fatalf("acme executions ran s1 %d and s2 %d times on visa's cell %s", s1-100, s2-100, cell.host.Addr())
	}

	if _, err := New(placement.Policy{}, urls...).Rollout(sc, ""); err == nil ||
		!strings.Contains(err.Error(), "placement") || !strings.Contains(err.Error(), `{"dedicated":{"visa":1}}`) {
		t.Fatalf("rollout with another policy: err = %v, want one naming the fleet's placement policy", err)
	}
	for _, d := range fleet {
		if cur := d.dir.Current(sc.Name); cur != rel.Version {
			t.Fatalf("%s is on v%d after the refused rollout, want v%d", d.host.Addr(), cur, rel.Version)
		}
	}
	runAs("visa", 1)
}
