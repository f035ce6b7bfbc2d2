package service

// Unregister removes the named provider (no-op when absent).
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.providers, name)
}

// Down reports whether the kill switch is set.
func (s *Simulated) Down() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}
