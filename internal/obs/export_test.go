package obs

// Started reports how many traces have been started.
func (tr *Tracer) Started() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.seq
}
