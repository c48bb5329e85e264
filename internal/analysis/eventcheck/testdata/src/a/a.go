// Fixture: flight-recorder emission under a held mutex is flagged; the
// collect-under-lock / emit-after-unlock pattern, goroutine bodies, and
// emission before the lock are not.
package a

import (
	"sync"

	"flex/internal/obs/recorder"
)

type Manager struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	rec   *recorder.Recorder
	state int
}

func (m *Manager) badEmitUnderLock() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state++
	m.rec.Emit(recorder.Event{Type: 1}) // want `flight-recorder Emit while mutex "m\.mu" is held`
}

func (m *Manager) badEmitUnderRLock() int {
	m.rw.RLock()
	m.rec.Emit(recorder.Event{Type: 2}) // want `flight-recorder Emit while mutex "m\.rw" is held`
	v := m.state
	m.rw.RUnlock()
	return v
}

func (m *Manager) badEpisodeUnderLock() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rec.NextEpisode() // want `flight-recorder NextEpisode while mutex "m\.mu" is held`
}

func (m *Manager) badEmitInBranch(overdraw bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if overdraw {
		m.rec.Emit(recorder.Event{Type: 3}) // want `flight-recorder Emit while mutex "m\.mu" is held`
	}
}

func (m *Manager) badEmitAssigned() {
	m.mu.Lock()
	seq := m.rec.Emit(recorder.Event{Type: 4}) // want `flight-recorder Emit while mutex "m\.mu" is held`
	m.state = int(seq)
	m.mu.Unlock()
}

func (m *Manager) badEmitBatchUnderLock(batch []recorder.Entry) {
	m.mu.Lock()
	first := m.rec.EmitBatch(9, 0, batch) // want `flight-recorder EmitBatch while mutex "m\.mu" is held`
	m.state = int(first)
	m.mu.Unlock()
}

func (m *Manager) badInternUnderLock(device string) recorder.Name {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rec.Intern(device) // want `flight-recorder Intern while mutex "m\.mu" is held`
}

func (m *Manager) goodEmitBatchAfterUnlock(batch []recorder.Entry) {
	m.mu.Lock()
	m.state++
	m.mu.Unlock()
	m.rec.EmitBatch(9, m.rec.Intern("view"), batch)
}

func (m *Manager) goodEmitAfterUnlock() {
	m.mu.Lock()
	e := recorder.Event{Type: 5, Subject: "rack"}
	m.state++
	m.mu.Unlock()
	m.rec.Emit(e)
}

func (m *Manager) goodEmitBeforeLock() {
	m.rec.Emit(recorder.Event{Type: 6})
	m.mu.Lock()
	m.state++
	m.mu.Unlock()
}

func (m *Manager) goodEmitInGoroutine() {
	m.mu.Lock()
	defer m.mu.Unlock()
	go func() {
		m.rec.Emit(recorder.Event{Type: 7})
	}()
}

func (m *Manager) goodTwoPhase() {
	m.mu.Lock()
	dirty := m.state > 0
	m.mu.Unlock()
	if dirty {
		m.rec.Emit(recorder.Event{Type: 8})
	}
	m.mu.Lock()
	m.state = 0
	m.mu.Unlock()
}
