package recorder

// SinkErr returns the first error the attached sink hit, or nil. A
// non-nil value means the JSONL log is truncated (the ring is not).
func (r *Recorder) SinkErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sink == nil {
		return nil
	}
	return r.sink.err
}

// Seq returns the last assigned sequence number.
func (r *Recorder) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}
