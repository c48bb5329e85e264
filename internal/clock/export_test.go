package clock

// Pending reports how many goroutines are blocked waiting on this clock.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}
