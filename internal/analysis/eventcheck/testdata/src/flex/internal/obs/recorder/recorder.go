// Package recorder is a fixture stand-in for the real flight recorder:
// eventcheck matches on the import-path suffix, so this shadow package
// exercises it without importing the repo.
package recorder

type Event struct {
	Type    int
	Subject string
}

type Recorder struct{}

func New(capacity int) *Recorder { return &Recorder{} }

func (r *Recorder) Emit(e Event) uint64 { return 0 }

func (r *Recorder) NextEpisode() uint64 { return 0 }

type Name uint32

type Entry struct {
	Subject Name
	Value   float64
}

func (r *Recorder) Intern(s string) Name { return 0 }

func (r *Recorder) EmitBatch(t int, actor Name, batch []Entry) uint64 { return 0 }

func (r *Recorder) Seq() uint64 { return 0 }
