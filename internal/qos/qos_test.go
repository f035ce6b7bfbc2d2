package qos

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestUnknownMemberOptimisticStart(t *testing.T) {
	h := NewHistory(0.5)
	m := h.Snapshot("new")
	if m.Reliability != 1 || m.Latency != 0 || m.Load != 0 || m.Executions != 0 {
		t.Fatalf("fresh member metrics = %+v", m)
	}
}

func TestFirstObservationSeeds(t *testing.T) {
	h := NewHistory(0.3)
	h.Begin("a")
	h.End("a", 100*time.Millisecond, true)
	m := h.Snapshot("a")
	if m.Latency != 100*time.Millisecond {
		t.Fatalf("seeded latency = %v", m.Latency)
	}
	if m.Reliability != 1 || m.Executions != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestEWMASmoothing(t *testing.T) {
	h := NewHistory(0.5)
	h.Begin("a")
	h.End("a", 100*time.Millisecond, true)
	h.Begin("a")
	h.End("a", 200*time.Millisecond, true)
	m := h.Snapshot("a")
	// 0.5*200 + 0.5*100 = 150ms
	if m.Latency != 150*time.Millisecond {
		t.Fatalf("latency = %v, want 150ms", m.Latency)
	}
	h.Begin("a")
	h.End("a", 150*time.Millisecond, false)
	m = h.Snapshot("a")
	// reliability: 0.5*0 + 0.5*1 = 0.5
	if m.Reliability != 0.5 {
		t.Fatalf("reliability = %v, want 0.5", m.Reliability)
	}
}

func TestRecentBehaviourDominates(t *testing.T) {
	h := NewHistory(0.3)
	// Long good history ...
	for i := 0; i < 50; i++ {
		h.Begin("a")
		h.End("a", 10*time.Millisecond, true)
	}
	// ... then the service degrades.
	for i := 0; i < 10; i++ {
		h.Begin("a")
		h.End("a", 500*time.Millisecond, false)
	}
	m := h.Snapshot("a")
	if m.Latency < 400*time.Millisecond {
		t.Fatalf("latency = %v, should track recent degradation", m.Latency)
	}
	if m.Reliability > 0.1 {
		t.Fatalf("reliability = %v, should track recent failures", m.Reliability)
	}
}

func TestLoadTracking(t *testing.T) {
	h := NewHistory(0)
	h.Begin("a")
	h.Begin("a")
	h.Begin("b")
	if got := h.Snapshot("a").Load; got != 2 {
		t.Fatalf("a load = %d", got)
	}
	if got := h.Snapshot("b").Load; got != 1 {
		t.Fatalf("b load = %d", got)
	}
	h.End("a", time.Millisecond, true)
	if got := h.Snapshot("a").Load; got != 1 {
		t.Fatalf("a load after End = %d", got)
	}
	// End without Begin must not underflow.
	h.End("c", time.Millisecond, true)
	if got := h.Snapshot("c").Load; got != 0 {
		t.Fatalf("c load = %d", got)
	}
}

func TestBadAlphaFallsBack(t *testing.T) {
	for _, alpha := range []float64{-1, 0, 1.5} {
		h := NewHistory(alpha)
		if h.alpha != DefaultAlpha {
			t.Fatalf("alpha %v -> %v, want DefaultAlpha", alpha, h.alpha)
		}
	}
	// Alpha exactly 1: newest observation fully replaces.
	h := NewHistory(1)
	h.Begin("a")
	h.End("a", 10*time.Millisecond, true)
	h.Begin("a")
	h.End("a", 90*time.Millisecond, true)
	if got := h.Snapshot("a").Latency; got != 90*time.Millisecond {
		t.Fatalf("alpha=1 latency = %v", got)
	}
}

func TestMembersSortedAndString(t *testing.T) {
	h := NewHistory(0)
	h.Begin("zeta")
	h.Begin("alpha")
	got := h.Members()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("Members = %v", got)
	}
	s := h.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "load=1") {
		t.Fatalf("String = %q", s)
	}
}

// TestFlappingMemberNeverRegainsOptimism pins the optimistic-start fix:
// a member that builds up a failure history, is shut out, and "reconnects
// with fresh state" must NOT come back at reliability 1 — a reset decays
// toward the prior, and repeated flap cycles converge there, always
// below a steadily healthy member.
func TestFlappingMemberNeverRegainsOptimism(t *testing.T) {
	h := NewHistory(0.5)
	// Steady member: long success history, reliability ~1.
	for i := 0; i < 20; i++ {
		h.Begin("steady")
		h.End("steady", time.Millisecond, true)
	}
	// Flapper: fails hard, is shut out, then its reliability resets on
	// every reconnect.
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < 10; i++ {
			h.Begin("flappy")
			h.End("flappy", time.Millisecond, false)
		}
		h.ResetToPrior("flappy")
		rel := h.Snapshot("flappy").Reliability
		if rel > PriorReliability {
			t.Fatalf("cycle %d: reset reliability = %v, above the %v prior", cycle, rel, PriorReliability)
		}
	}
	if flap, steady := h.Snapshot("flappy").Reliability, h.Snapshot("steady").Reliability; flap >= steady {
		t.Fatalf("flapper reliability %v >= steady member %v: flapping must not pay", flap, steady)
	}
	// The reset preserved, not wiped, the rest of the history.
	if n := h.Snapshot("flappy").Executions; n != 50 {
		t.Fatalf("executions after resets = %d, want 50", n)
	}
}

// TestResetToPriorSeedsUnknownMemberAtPrior: resetting a member nobody
// has observed yet seeds it AT the prior — a reset is an admission of
// past failure and must never grant the optimistic start of 1.
func TestResetToPriorSeedsUnknownMemberAtPrior(t *testing.T) {
	h := NewHistory(0.5)
	h.ResetToPrior("fresh")
	if rel := h.Snapshot("fresh").Reliability; rel != PriorReliability {
		t.Fatalf("reset of unknown member: reliability = %v, want %v", rel, PriorReliability)
	}
	// And further successes still earn trust back from the prior.
	h.Begin("fresh")
	h.End("fresh", time.Millisecond, true)
	if rel := h.Snapshot("fresh").Reliability; rel != 0.75 { // 0.5*1 + 0.5*0.5
		t.Fatalf("reliability after one success = %v, want 0.75", rel)
	}
}

// TestResetDecaysFromAboveToo: a reliable member's reset also moves
// toward the prior (from above), so resets are never an upgrade path in
// either direction.
func TestResetDecaysFromAboveToo(t *testing.T) {
	h := NewHistory(0.5)
	for i := 0; i < 20; i++ {
		h.Begin("good")
		h.End("good", time.Millisecond, true)
	}
	before := h.Snapshot("good").Reliability
	h.ResetToPrior("good")
	after := h.Snapshot("good").Reliability
	if !(after < before && after > PriorReliability) {
		t.Fatalf("reset from above: %v -> %v, want strictly between prior and old value", before, after)
	}
}

func TestConcurrentAccess(t *testing.T) {
	h := NewHistory(0.3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h.Begin("m")
				h.End("m", time.Millisecond, i%5 != 0)
				_ = h.Snapshot("m")
			}
		}()
	}
	wg.Wait()
	m := h.Snapshot("m")
	if m.Load != 0 {
		t.Fatalf("load = %d after all ended", m.Load)
	}
	if m.Executions != 8*200 {
		t.Fatalf("executions = %d", m.Executions)
	}
}
