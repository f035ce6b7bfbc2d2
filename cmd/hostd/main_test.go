package main

// Startup smoke tests: flag parsing rejects bad specs, and the daemon
// binds its coordination + admin endpoints, answers the admin health
// check, and shuts down cleanly when its context is cancelled.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"selfserv/internal/circuit"
	"selfserv/internal/community"
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
	ctx := context.Background()
	var out logBuffer
	cases := [][]string{
		{},                                   // no -services
		{"-services", "NoSuchService"},       // unknown service
		{"-services", "echo:only-two-parts"}, // malformed echo spec
		{"-services", "inc:X", "-fsync", "sometimes"}, // bad fsync mode
		{"-no-such-flag"}, // unknown flag
	}
	for _, args := range cases {
		if err := run(ctx, args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

var adminRe = regexp.MustCompile(`admin on http://([0-9.:]+)`)

func TestRunBindsServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out logBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-coord", "127.0.0.1:0", "-admin", "127.0.0.1:0",
			"-services", "inc:Inc,echo:Echo:ping",
			"-send-queue", "64",
			"-stats", "10ms",
		}, &out)
	}()

	// The daemon logs its bound admin address; wait for it.
	var admin string
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

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", admin))
	if err != nil {
		t.Fatalf("admin health check: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down within 5s of cancel")
	}
	if !strings.Contains(out.String(), "services") {
		t.Fatalf("startup log missing the services line:\n%s", out.String())
	}
}

func TestRunWithAvailabilityFlags(t *testing.T) {
	// The availability controls all enabled at once: community breakers +
	// transport breakers (and with them the community's probe loop), and
	// the stats line carrying the churn counters.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out logBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-coord", "127.0.0.1:0", "-admin", "127.0.0.1:0",
			"-services", "AccommodationBooking,CarRental",
			"-breaker-window", "16", "-breaker-threshold", "0.5",
			"-breaker-open-for", "20ms",
			"-stats", "10ms",
		}, &out)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never logged the churn counters; log:\n%s", out.String())
		}
		if strings.Contains(out.String(), "breaker-opens=") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down within 5s of cancel")
	}
	for _, want := range []string{"failovers=", "decode-errors="} {
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
	// mode, the admin /recover resource reporting a configured journal,
	// and the stats line carrying the stale-frame + durability counters.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out logBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-coord", "127.0.0.1:0", "-admin", "127.0.0.1:0",
			"-services", "inc:Inc",
			"-journal-dir", t.TempDir(), "-fsync", "off",
			"-stats", "10ms",
		}, &out)
	}()

	var admin string
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

	resp, err := http.Get(fmt.Sprintf("http://%s/recover", admin))
	if err != nil {
		t.Fatalf("GET /recover: %v", err)
	}
	var st struct {
		Configured bool `json:"configured"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode /recover: %v", err)
	}
	resp.Body.Close()
	if !st.Configured {
		t.Fatal("/recover reports no journal despite -journal-dir")
	}

	deadline = time.Now().Add(5 * time.Second)
	for !strings.Contains(out.String(), "passivated=") {
		if time.Now().After(deadline) {
			t.Fatalf("stats line never carried durability counters; log:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down within 5s of cancel")
	}
	for _, want := range []string{"rerouted=", "dropped-stale=", "evicted=", "retired=", "journal-appends=", "journal-writes=", "journal-syncs=", "durability"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("log missing %q:\n%s", want, out.String())
		}
	}
}
