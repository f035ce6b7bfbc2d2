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
