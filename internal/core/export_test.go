package core

import (
	"testing"
	"time"
)

// SetDrainDeadline lowers the redeploy drain deadline for one test, so a
// straggler is failed in milliseconds instead of 30 s. Call it before the
// test builds its platforms: the restore runs after their Close.
func SetDrainDeadline(t testing.TB, d time.Duration) {
	old := drainTimeout
	drainTimeout = d
	t.Cleanup(func() { drainTimeout = old })
}
