package main

// Startup smoke tests: flag parsing rejects bad specs, and the daemon
// binds its coordination + admin endpoints, answers the admin health
// check, and shuts down cleanly when its context is cancelled.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"selfserv/internal/circuit"
	"selfserv/internal/community"
	"selfserv/internal/hostapi"
	"selfserv/internal/journal"
	"selfserv/internal/service"
	"selfserv/internal/transport"
)

// logBuffer is a goroutine-safe io.Writer capturing the daemon's log.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunRejectsBadFlags(t *testing.T) {
	// Cancelled from the start: a row the daemon wrongly accepts returns
	// nil at once instead of serving until the test times out.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out logBuffer
	cases := [][]string{
		{},                                   // no -services
		{"-services", "NoSuchService"},       // unknown service
		{"-services", "echo:only-two-parts"}, // malformed echo spec
		{"-services", "inc:X", "-fsync", "sometimes"}, // bad fsync mode
		{"-no-such-flag"}, // unknown flag
		{"-services", "inc:X", "-breaker-threshold", "0.5"}, // breaker thresholds are the circuit defaults
	}
	for _, args := range cases {
		if err := run(ctx, args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

var adminRe = regexp.MustCompile(`admin on http://([0-9.:]+)`)

// startDaemon runs the daemon on loopback ephemeral ports with args and
// waits for it to log its admin address. stop cancels it and fails the
// test unless it shuts down cleanly within 5s.
func startDaemon(t *testing.T, args ...string) (admin string, out *logBuffer, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	out = &logBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-coord", "127.0.0.1:0", "-admin", "127.0.0.1:0"}, args...), out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for admin == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never logged its admin address; log:\n%s", out.String())
		}
		if m := adminRe.FindStringSubmatch(out.String()); m != nil {
			admin = m[1]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	stop = func() {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v after cancel, want nil", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("daemon did not shut down within 5s of cancel")
		}
	}
	return admin, out, stop
}

// waitLog waits up to 5s for the daemon's log to contain want.
func waitLog(t *testing.T, out *logBuffer, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(out.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("log never carried %q:\n%s", want, out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRunBindsServesAndShutsDown(t *testing.T) {
	admin, out, stop := startDaemon(t,
		"-services", "inc:Inc,echo:Echo:ping",
		"-send-queue", "64",
		"-stats", "10ms",
	)
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", admin))
	if err != nil {
		t.Fatalf("admin health check: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	stop()
	if !strings.Contains(out.String(), "services") {
		t.Fatalf("startup log missing the services line:\n%s", out.String())
	}
}

func TestRunWithAvailabilityFlags(t *testing.T) {
	// The availability controls all enabled at once: community breakers +
	// transport breakers (and with them the community's probe loop), and
	// the stats line carrying the churn counters.
	_, out, stop := startDaemon(t,
		"-services", "AccommodationBooking,CarRental",
		"-breaker-window", "16", "-breaker-open-for", "20ms",
		"-stats", "10ms",
	)
	waitLog(t, out, "breaker-opens=")
	stop()
	for _, want := range []string{"failovers=", "decode-errors=", "dropped-stale=", "refused="} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("stats line missing %q:\n%s", want, out.String())
		}
	}
}

// TestMemberBreakerTripReachesStats: a member breaker of a community
// built the way the daemon builds its own lands in the transport's stats
// book, which the -stats line's breaker-opens= reads.
func TestMemberBreakerTripReachesStats(t *testing.T) {
	tcp := transport.NewTCP(transport.FlowOptions{})
	defer tcp.Close()
	comm := community.New("C", communityOptions(&circuit.Options{Window: 2}, tcp))
	down := service.NewSimulated("Down", service.SimulatedOptions{}).Echo("book")
	down.SetDown(true)
	if err := comm.Join(&community.Member{Provider: down}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := comm.Invoke(context.Background(), service.Request{Operation: "book"}); err == nil {
			t.Fatal("invoke of a down member succeeded")
		}
	}
	if got := tcp.Stats().Total().BreakerOpens; got < 1 {
		t.Fatalf("BreakerOpens = %d after the member's breaker tripped, want >= 1", got)
	}
}

func TestRunWithDurabilityFlags(t *testing.T) {
	// The durable-instance controls end to end: journal directory, fsync
	// mode, the admin /recover resource replaying the journal, and the
	// stats line carrying the durability counters.
	admin, out, stop := startDaemon(t,
		"-services", "inc:Inc",
		"-journal-dir", t.TempDir(), "-fsync", "off",
		"-stats", "10ms",
	)
	if _, err := (&hostapi.Client{BaseURL: "http://" + admin}).Recover(context.Background()); err != nil {
		t.Fatalf("POST /recover with -journal-dir: %v", err)
	}
	waitLog(t, out, "passivated=")
	stop()
	for _, want := range []string{"evicted=", "retired=", "journal-appends=", "journal-writes=", "journal-syncs=", "durability"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("log missing %q:\n%s", want, out.String())
		}
	}
}

// TestRecoverOnAJournalLessDaemon: a daemon without a journal answers
// POST /recover with a 409 that is ErrNoJournal, and when -journal-dir
// failed to open, the answer names the open error, not only the startup
// log's warning.
func TestRecoverOnAJournalLessDaemon(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	unopenable := filepath.Join(file, "journal") // under a regular file
	_, openErr := journal.Open(journal.Options{Dir: unopenable})
	if openErr == nil {
		t.Fatalf("journal.Open(%s) succeeded", unopenable)
	}
	for _, tc := range []struct {
		name  string
		args  []string
		names string // text the 409 must carry besides ErrNoJournal
	}{
		{"without -journal-dir", nil, ""},
		{"-journal-dir fails to open", []string{"-journal-dir", unopenable}, openErr.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			admin, _, stop := startDaemon(t, append([]string{"-services", "inc:Inc"}, tc.args...)...)
			defer stop()
			_, err := (&hostapi.Client{BaseURL: "http://" + admin}).Recover(context.Background())
			if !errors.Is(err, hostapi.ErrNoJournal) || !strings.Contains(err.Error(), "HTTP 409") || !strings.Contains(err.Error(), tc.names) {
				t.Fatalf("POST /recover = %v, want a 409 wrapping ErrNoJournal and naming %q", err, tc.names)
			}
		})
	}
}
