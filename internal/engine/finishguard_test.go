package engine_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"selfserv/internal/engine"
	"selfserv/internal/journal"
	"selfserv/internal/message"
	"selfserv/internal/routing"
	"selfserv/internal/transport"
)

// TestFinishGuardErrorFaultsTheInstance: a finish clause whose guard
// fails with anything but "variable not there yet" cannot be cured by
// waiting. A coordinator faults the instance for such a precondition
// guard; the wrapper used to skip the clause silently, so Execute hung
// until its caller's deadline. Both run marking.satisfied now, and the
// journaled notice, replayed through Recover, reaches the same fault —
// noticeLocked is what the wire and the replay both call.
func TestFinishGuardErrorFaultsTheInstance(t *testing.T) {
	plan := badPlan(func(p *routing.Plan) { p.Finish[0].Condition = "1 / x > 0" })
	// One life of the wrapper: the entry state is a sink that reports the
	// start message and swallows it; the test plays its coordinator.
	life := func(j *journal.Journal) (*transport.InMem, *engine.Wrapper, <-chan struct{}) {
		net := transport.NewInMem(transport.InMemOptions{})
		dir := engine.NewDirectory()
		started := make(chan struct{}, 1)
		if _, err := net.Listen("sink", func(context.Context, *message.Message) { started <- struct{}{} }); err != nil {
			t.Fatal(err)
		}
		dir.Set("C", "s", "sink")
		w, err := newWrapper(net, "w", dir, plan, engine.HostOptions{Journal: j})
		if err != nil {
			t.Fatal(err)
		}
		return net, w, started
	}
	openJournal := func() *journal.Journal {
		j, err := journal.Open(journal.Options{Dir: t.TempDir(), Fsync: journal.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	wantFault := func(err error) {
		t.Helper()
		if !errors.Is(err, engine.ErrInstanceFault) || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("err = %v, want an instance fault naming the division by zero", err)
		}
	}

	jA := openJournal()
	defer jA.Close()
	netA, wA, started := life(jA)
	defer netA.Close()
	defer wA.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	result := make(chan error, 1)
	go func() {
		_, err := wA.ExecuteInstance(ctx, "g-1", map[string]string{"x": "0"})
		result <- err
	}()
	<-started // the request is journaled and the instance is waiting
	err := netA.Send(ctx, wA.Addr(), &message.Message{
		Type: message.TypeDone, Composite: "C", Instance: "g-1", From: "s", To: message.WrapperID,
		Vars: map[string]string{"x": "0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantFault(<-result)

	// A process killed between the notice's commit point and the
	// completion record leaves wstart + warrival behind: the same journal
	// without its wdone.
	jB := openJournal()
	defer jB.Close()
	if err := jA.Replay(func(r *journal.Record) error {
		if r.Kind == journal.KindWDone {
			return nil
		}
		return jB.Append(r)
	}); err != nil {
		t.Fatal(err)
	}
	netB, wB, _ := life(jB)
	defer netB.Close()
	defer wB.Close()
	stats, err := engine.Recover(ctxWithTimeout(t), jB, nil, []*engine.Wrapper{wB})
	if err != nil || stats.Wrappers != 1 {
		t.Fatalf("Recover: %v (stats: %s)", err, stats)
	}
	_, err = wB.WaitRecovered(ctxWithTimeout(t), "g-1")
	wantFault(err)
}
