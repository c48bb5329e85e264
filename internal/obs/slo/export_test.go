package slo

// Bound reports whether Bind has been called.
func (a *Auditor) Bound() bool { return a.bound }
