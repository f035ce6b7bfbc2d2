package controlplane

import (
	"testing"
	"time"
)

// SetAdminTimeout lowers the per-request admin timeout of the control
// planes New builds during one test, so a hung daemon is skipped in
// milliseconds instead of seconds.
func SetAdminTimeout(t testing.TB, d time.Duration) {
	old := adminTimeout
	adminTimeout = d
	t.Cleanup(func() { adminTimeout = old })
}

// AdminCalls reports the total admin requests New's clients issued so
// far (including failed ones). Executions must never move this counter.
func (cp *ControlPlane) AdminCalls() uint64 { return cp.calls.Load() }
