//go:build race

package transport

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// share of what is put into it on purpose: a budget that counts on a
// frame buffer coming back does not hold there.
const raceEnabled = true
