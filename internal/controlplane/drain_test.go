package controlplane

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/placement"
	"selfserv/internal/transport"
	"selfserv/internal/workload"
)

// TestDrainEndsAVersion pins the one end of a version over two daemons:
// an execution blocked in a provider past the drain's deadline is failed
// loudly — Drain returns the abandonment, Abandoned counts it, its
// Execute returns ErrInstanceFault — and the version leaves every
// daemon. A release with nothing in flight drains cleanly.
func TestDrainEndsAVersion(t *testing.T) {
	sc := workload.Chain(2)
	net := transport.NewInMem(transport.InMemOptions{})
	defer net.Close()
	var block atomic.Bool
	block.Store(true)
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release) // lets the wedged provider call return
	d1 := newDaemon(t, net, "coord-1", 1)
	d2 := newDaemonServing(t, net, "coord-2", 2, func(ctx context.Context, p map[string]string) (map[string]string, error) {
		if block.Load() {
			arrived <- struct{}{}
			<-release
		}
		return incr(ctx, p)
	})
	cp := New(placement.Policy{}, d1.admin.URL, d2.admin.URL)
	retired := func(version uint64) {
		t.Helper()
		for _, d := range []*daemon{d1, d2} {
			if states := d.host.States()[sc.Name]; len(states) != 0 {
				t.Fatalf("%s still lists %v after v%d drained", d.host.Addr(), states, version)
			}
		}
	}

	rel1, err := cp.Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	w1 := deployWrapper(t, cp, net, "wrapper-1", rel1)
	execCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	errs := make(chan error, 1)
	go func() {
		_, err := w1.Execute(execCtx, map[string]string{"x": "0"})
		errs <- err
	}()
	select {
	case <-arrived:
	case <-execCtx.Done():
		t.Fatal("the execution never reached the blocking provider")
	}
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer drainCancel()
	if err := cp.Drain(drainCtx, rel1, w1); err == nil || !strings.Contains(err.Error(), "abandoned 1") {
		t.Fatalf("Drain past its deadline = %v, want the abandonment of 1 instance", err)
	}
	if got := w1.Abandoned(); got != 1 {
		t.Fatalf("Abandoned = %d, want 1", got)
	}
	if err := <-errs; !errors.Is(err, engine.ErrInstanceFault) {
		t.Fatalf("blocked Execute = %v, want ErrInstanceFault", err)
	}
	retired(rel1.Version)

	block.Store(false)
	rel2, err := cp.Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	w2 := deployWrapper(t, cp, net, "wrapper-2", rel2)
	if got := execute(t, w2); got != "2" {
		t.Fatalf("x = %q, want 2", got)
	}
	if err := cp.Drain(context.Background(), rel2, w2); err != nil {
		t.Fatalf("Drain with nothing in flight = %v, want nil", err)
	}
	if got := w2.Abandoned(); got != 0 {
		t.Fatalf("clean drain abandoned %d", got)
	}
	retired(rel2.Version)
}
