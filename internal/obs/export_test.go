package obs

// Started reports how many traces have been started.
func (tr *Tracer) Started() uint64 { return tr.seq }
