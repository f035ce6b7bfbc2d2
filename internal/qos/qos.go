// Package qos tracks the runtime quality-of-service observations that
// service communities use for delegation: per-member latency, reliability
// (success rate), and instantaneous load, smoothed over "the history of
// past executions and the status of ongoing executions" (§2 of the
// paper).
//
// Latency and reliability are exponentially weighted moving averages so
// recent behaviour dominates; load is an exact in-flight counter. History
// only scores members: whether one may be picked at all is decided by its
// circuit breaker (see package community).
package qos

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultAlpha is the EWMA smoothing factor: the weight of the newest
// observation.
const DefaultAlpha = 0.3

// PriorReliability is the neutral reliability prior a member's smoothed
// reliability decays TOWARD on a reset (its circuit breaker closing
// again after a trip, a rejoin after a flap). It is deliberately well below the optimistic
// start of 1: a member with a failure history earns trust back through
// observed successes, never by resetting its state.
const PriorReliability = 0.5

// Metrics is a snapshot of one member's observed quality.
type Metrics struct {
	// Latency is the smoothed service time. Zero until first observation.
	Latency time.Duration
	// Reliability is the smoothed success probability in [0,1]. Members
	// with no observations report 1 (optimistic start, standard for
	// exploration); see ResetToPrior for why a RESET never restores it.
	Reliability float64
	// Load is the number of in-flight invocations right now.
	Load int
	// Executions is the lifetime number of completed invocations.
	Executions int64
}

// String renders a compact summary.
func (m Metrics) String() string {
	return fmt.Sprintf("lat=%v rel=%.2f load=%d n=%d",
		m.Latency.Round(time.Microsecond), m.Reliability, m.Load, m.Executions)
}

// History accumulates observations for a set of members. The zero value
// is not usable; call NewHistory.
type History struct {
	alpha float64

	mu      sync.Mutex
	members map[string]*memberStats
}

type memberStats struct {
	latency     float64 // EWMA nanoseconds
	reliability float64 // EWMA success indicator
	seeded      bool
	load        int
	executions  int64
}

// NewHistory returns a History with the given EWMA alpha; alpha outside
// (0,1] falls back to DefaultAlpha.
func NewHistory(alpha float64) *History {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	return &History{alpha: alpha, members: map[string]*memberStats{}}
}

func (h *History) member(name string) *memberStats {
	m, ok := h.members[name]
	if !ok {
		m = &memberStats{reliability: 1}
		h.members[name] = m
	}
	return m
}

// Begin records that an invocation of member has started (load +1).
func (h *History) Begin(member string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.member(member).load++
}

// End records a finished invocation: its duration, whether it succeeded,
// and load -1. Begin/End must pair.
func (h *History) End(member string, d time.Duration, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.member(member)
	if m.load > 0 {
		m.load--
	}
	m.executions++
	success := 0.0
	if ok {
		success = 1.0
	}
	if !m.seeded {
		m.latency = float64(d)
		m.reliability = success
		m.seeded = true
		return
	}
	m.latency = h.alpha*float64(d) + (1-h.alpha)*m.latency
	m.reliability = h.alpha*success + (1-h.alpha)*m.reliability
}

// Snapshot returns the current metrics for member. Unknown members report
// zero latency, reliability 1, and zero load.
func (h *History) Snapshot(member string) Metrics {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.members[member]
	if !ok {
		return Metrics{Reliability: 1}
	}
	return Metrics{
		Latency:     time.Duration(m.latency),
		Reliability: m.reliability,
		Load:        m.load,
		Executions:  m.executions,
	}
}

// ResetToPrior applies a recovery reset to member's reliability: the
// smoothed value decays HALFWAY toward PriorReliability, keeping the
// latency history and execution count.
//
// The naive reset — dropping the member's stats so it restarts at the
// optimistic 1 — is exploitable: a flapping provider that fails, is
// shut out, and reconnects "with fresh state" would out-score every honest
// member on each reappearance and win selection forever. Decaying toward
// a neutral prior instead gives a recovered member partial forgiveness
// (it isn't starved by its past), but caps what a reset can ever earn at
// the prior: repeated flap cycles converge to PriorReliability, always
// below a steadily healthy member's ~1. Members with no history at all
// are seeded AT the prior — a reset is an admission of past failure, so
// it must never grant the optimistic start.
func (h *History) ResetToPrior(member string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.member(member)
	if !m.seeded {
		m.reliability = PriorReliability
		m.seeded = true
		return
	}
	m.reliability = PriorReliability + (m.reliability-PriorReliability)/2
}

// Members returns the names with any recorded state, sorted.
func (h *History) Members() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	names := make([]string, 0, len(h.members))
	for n := range h.members {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders all members' metrics, one per line, sorted by name.
func (h *History) String() string {
	var sb strings.Builder
	for _, n := range h.Members() {
		fmt.Fprintf(&sb, "%s: %s\n", n, h.Snapshot(n))
	}
	return sb.String()
}
