package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"selfserv/internal/core"
	"selfserv/internal/journal"
	"selfserv/internal/service"
	"selfserv/internal/workload"
)

// TestJournalDumpOfKilledChain dumps the journal a platform killed
// mid-Chain(8) left behind (state 5's provider was executing): one JSON
// line per record Replay would deliver, each naming where it sits, and
// the history they tell stops where the kill landed.
func TestJournalDumpOfKilledChain(t *testing.T) {
	dir := t.TempDir()
	jopts := journal.Options{Dir: dir, Fsync: journal.FsyncOff}
	p := core.New(core.Options{Durability: jopts})
	if err := p.DurabilityError(); err != nil {
		t.Fatal(err)
	}
	reached5 := make(chan struct{})
	gate := make(chan struct{})
	defer close(gate) // releases the killed life's stuck provider call
	for i := 1; i <= 8; i++ {
		name := fmt.Sprintf("svc%d", i)
		s := service.NewSimulated(name, service.SimulatedOptions{})
		held := i == 5
		s.Handle("run", func(_ context.Context, params map[string]string) (map[string]string, error) {
			if held {
				close(reached5)
				<-gate
			}
			return map[string]string{"x": params["x"] + "+"}, nil
		})
		h, err := p.AddHost(p.Network().MintAddr(name))
		if err != nil {
			t.Fatal(err)
		}
		p.RegisterService(h, s)
	}
	comp, err := p.Deploy(workload.Chain(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		comp.ExecuteInstance(ctx, "killed-1", map[string]string{"x": ""}) // dies with the platform
	}()
	select {
	case <-reached5:
	case <-time.After(10 * time.Second):
		t.Fatal("state 5 never reached")
	}
	p.Crash()
	cancel()
	<-done

	var out bytes.Buffer
	if err := dumpJournal(&out, dir); err != nil {
		t.Fatalf("dump: %v", err)
	}
	var entries []journal.Entry
	for _, line := range bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n")) {
		var e journal.Entry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("dump line %q: %v", line, err)
		}
		entries = append(entries, e)
	}

	j, err := journal.Open(jopts)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	replayed := 0
	if err := j.Replay(func(*journal.Record) error { replayed++; return nil }); err != nil {
		t.Fatal(err)
	}
	// wstart, then arrival+invoke+round at s1..s4, then s5's arrival.
	if want := 1 + 3*4 + 1; len(entries) != replayed || replayed != want {
		t.Fatalf("dump printed %d lines, Replay delivered %d records, want %d", len(entries), replayed, want)
	}
	last := entries[len(entries)-1]
	if last.Record.Kind != journal.KindArrival || last.Record.State != "s5" || last.Segment == "" || last.Offset <= 0 {
		t.Fatalf("last dumped entry = %+v, record %+v; want s5's arrival with its location", last, last.Record)
	}
}
