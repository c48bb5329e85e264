package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"flex/internal/clock"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark from outside the program. Parent is the index of the
// enclosing span (-1 for a root); Run identifies the workload repetition
// all spans of one repetition share.
type span struct {
	Name       string
	Parent     int32
	Run        int32
	Start, End time.Duration // since the tracer was created
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, so the traced loops run unchanged with
// spans off — which is how trace.overhead_ratio is measured.
type tracer struct {
	clk   clock.Clock
	t0    time.Time
	run   int32
	spans []span
	stack []int32
}

func newTracer(clk clock.Clock) *tracer {
	return &tracer{clk: clk, t0: clk.Now()}
}

// parent is the innermost open span, -1 at the root.
func (t *tracer) parent() int32 {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return -1
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := t.parent()
	t.stack = append(t.stack, int32(len(t.spans)))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Run: t.run, Start: t.clk.Now().Sub(t.t0)})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := t.clk.Now().Sub(t.t0)
	n := len(t.stack)
	t.spans[t.stack[n-1]].End = now
	t.stack = t.stack[:n-1]
}

// record adds a closed span from timestamps the caller already took.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Parent: t.parent(), Run: t.run, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

// layerOf maps a span name to its layer: the package name before the
// first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums each layer's self time: a span's duration minus the
// part its child spans cover. The second result is the total root time.
func (t *tracer) selfTimes() (map[string]time.Duration, time.Duration) {
	child := make([]time.Duration, len(t.spans))
	var total time.Duration
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		} else {
			total += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[layerOf(s.Name)] += s.End - s.Start - child[i]
	}
	return self, total
}

// spanStats is the per-name digest the self-time table prints.
type spanStats struct {
	Name  string
	Count int
	Total time.Duration
}

func (t *tracer) byName() []spanStats {
	idx := map[string]int{}
	var out []spanStats
	for _, s := range t.spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanStats{Name: s.Name})
		}
		out[i].Count++
		out[i].Total += s.End - s.Start
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// printTable writes the per-layer self-time table and the heaviest span
// names.
func (t *tracer) printTable(w io.Writer) {
	self, total := t.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "  %d spans, %.3fs traced; self time by layer:\n", len(t.spans), total.Seconds())
	for _, l := range layers {
		fmt.Fprintf(w, "    %-12s %9.3f ms  %5.1f%%\n", l, float64(self[l])/1e6, 100*float64(self[l])/float64(total))
	}
	fmt.Fprintf(w, "  heaviest calls:\n")
	for i, s := range t.byName() {
		if i == 8 {
			break
		}
		fmt.Fprintf(w, "    %-36s n=%-8d mean %10.2f us\n", s.Name, s.Count, float64(s.Total.Microseconds())/float64(s.Count))
	}
}

// writeJSONL writes one span per line under dir and returns the path.
func (t *tracer) writeJSONL(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		ID      int    `json:"id"`
		Parent  int32  `json:"parent"`
		Run     string `json:"run"`
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	for i, s := range t.spans {
		err = enc.Encode(line{ID: i, Parent: s.Parent, Run: fmt.Sprintf("%s/%d", workload, s.Run), Name: s.Name,
			StartNS: s.Start.Nanoseconds(), EndNS: s.End.Nanoseconds()})
		if err != nil {
			break
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}
