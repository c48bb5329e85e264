package rackmgr

// Log returns a copy of the action audit log.
func (m *Manager) Log() []Action {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Action(nil), m.log...)
}
