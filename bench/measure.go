package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"time"

	"flex/internal/clock"
	"flex/internal/stats"
)

// value is one reported number. Min and Max are over the measured
// repetitions (equal to Value for counts and exact metrics).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

func exact(v float64, unit string) value { return value{Value: v, Unit: unit, Min: v, Max: v} }

// spread reports the median of xs with its extremes.
func spread(xs []float64, unit string) value {
	b := stats.BoxOf(xs)
	return value{Value: b.Median, Unit: unit, Min: b.Min, Max: b.Max}
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// result is everything one workload run reports.
type result struct {
	Workload    string           `json:"workload"`
	Scale       string           `json:"scale"`
	Seed        int64            `json:"seed"`
	Reps        int              `json:"reps"`
	InputHash   string           `json:"input_hash"`
	Fingerprint string           `json:"fingerprint"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Failures    []string         `json:"failures,omitempty"`
	Metrics     map[string]value `json:"metrics"`
	// Traced is true for a -trace run, whose Metrics are the per-layer
	// set instead of the end-to-end one.
	Traced bool `json:"traced,omitempty"`
}

// fail records failed operations with one explanation; only the first few
// explanations are kept.
func (r *result) fail(ops int, format string, args ...any) {
	r.Failed += ops
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// timed runs fn once and returns its wall time and what it allocated. A
// collection first, so a repetition does not pay for its predecessor's
// garbage.
func timed(clk clock.Clock, fn func()) (time.Duration, uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := clk.Now()
	fn()
	wall := clk.Now().Sub(start)
	runtime.ReadMemStats(&after)
	return wall, after.TotalAlloc - before.TotalAlloc
}

// perOp times n back-to-back calls of fn and returns nanoseconds per call.
func perOp(clk clock.Clock, n int, fn func()) float64 {
	start := clk.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(clk.Now().Sub(start).Nanoseconds()) / float64(n)
}

// allocPerOp is perOp for bytes allocated.
func allocPerOp(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// subseed derives an independent seed for one stream of one repetition
// (splitmix64 over the run seed). Every input the benchmark generates
// draws from a subseed, so -seed alone fixes all of them.
func subseed(seed int64, stream, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(stream+1) + 0xbf58476d1ce4e5b9*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1) // non-negative
}

// Seed streams.
const (
	streamDynamics = iota
	streamTrace
	streamShuffle
	streamScenario
	streamArrivals
	streamChurn
)

// digest hashes formatted text: the inputs into InputHash, the simulated
// outcomes into Fingerprint. A host-only optimisation must leave both
// bit-identical.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(format string, args ...any) {
	fmt.Fprintf(d.h, format, args...)
	d.h.Write([]byte{0})
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }
