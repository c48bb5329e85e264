package slo

// Bound reports whether Bind has been called.
func (a *Auditor) Bound() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bound
}
