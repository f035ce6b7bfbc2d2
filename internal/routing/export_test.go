package routing

// Covered returns, in order, every precondition clause whose sources all
// have pending notifications in received: the declarative twin of
// CompiledClause.Covered, which the compiled masks are checked against.
func (t *Table) Covered(received map[string]int) []Clause {
	var out []Clause
	for _, c := range t.Preconditions {
		if c.covers(received) {
			out = append(out, c)
		}
	}
	return out
}

// covers reports whether every source has a pending notification in
// received (counts > 0).
func (c Clause) covers(received map[string]int) bool {
	for _, src := range c.Sources {
		if received[src] <= 0 {
			return false
		}
	}
	return true
}
