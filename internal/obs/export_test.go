package obs

import (
	"io"
	"math"
)

// Started reports how many traces have been started.
func (tr *Tracer) Started() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.seq
}

// WriteJSON renders the retained traces (newest first) as a JSON array.
func (tr *Tracer) WriteJSON(w io.Writer) error {
	return tr.WriteJSONFiltered(w, TraceFilter{})
}

// Add adds d (atomically, via compare-and-swap).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}
