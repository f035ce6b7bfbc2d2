package transport

// Restore ends a Cut: like Release, plus one reconnect recorded in the
// destination's stats (the TCP equivalent re-dials once and resumes the
// queue).
func (n *InMem) Restore(addr string) { n.unstall(addr, true) }
