package journal_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"selfserv/internal/core"
	"selfserv/internal/engine"
	"selfserv/internal/journal"
	"selfserv/internal/service"
	"selfserv/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/chain8 from a fresh Chain(8) run")

// TestUpdateGoldenChain8 regenerates the golden journal directory the
// fuzz seeds and TestGoldenSegmentStillReadable read: Chain(8)
// executions on a platform with a per-state cap of one instance, run
// until two instance IDs share a table stripe and every coordinator
// passivates, so the segment holds arrival, invoke, round, passivate,
// wstart, warrival and wdone records as the engine really writes them. Run it — `go test ./internal/journal -run
// UpdateGolden -update` — only together with a format-version bump.
func TestUpdateGoldenChain8(t *testing.T) {
	if !*update {
		t.Skip("golden directory is regenerated only with -update")
	}
	const golden = "testdata/chain8"
	if err := os.RemoveAll(golden); err != nil {
		t.Fatal(err)
	}
	p := core.New(core.Options{
		HostOptions: engine.HostOptions{MaxInstancesPerState: 1},
		Durability: journal.Options{
			Dir: golden, Fsync: journal.FsyncOff, Shards: 1,
			Now: func() time.Time { return time.Unix(1700000000, 0) },
		},
	})
	if err := p.DurabilityError(); err != nil {
		t.Fatal(err)
	}
	sc := workload.Chain(8)
	workload.RegisterChainProviders(p.Registry(), 8, service.SimulatedOptions{})
	var hosts []*engine.Host
	for i, svc := range sc.Services() {
		h, err := p.AddHost(p.Network().MintAddr(fmt.Sprintf("host-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		prov, err := p.Registry().Lookup(svc)
		if err != nil {
			t.Fatal(err)
		}
		p.RegisterService(h, prov)
		hosts = append(hosts, h)
	}
	comp, err := p.Deploy(sc)
	if err != nil {
		t.Fatal(err)
	}
	passivated := func() (n uint64) {
		for _, h := range hosts {
			n += h.Passivated()
		}
		return n
	}
	for i := 0; passivated() == 0; i++ {
		out, err := comp.ExecuteInstance(context.Background(), fmt.Sprintf("golden-%d", i), map[string]string{"x": "0"})
		if err != nil || out["x"] != "8" {
			t.Fatalf("execution %d: %v, %v", i, out, err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	err = journal.Walk(golden, func(e journal.Entry) error {
		line, err := json.Marshal(e)
		fmt.Fprintf(&dump, "%s\n", line)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(golden, "dump.jsonl"), dump.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
