package flex

// Fuzz targets for the parsing and interpolation surfaces. `go test` runs
// the seed corpus as regular tests; `go test -fuzz=FuzzX` explores.

import (
	"bytes"
	"strings"
	"testing"

	"flex/internal/impact"
)

// FuzzReadTrace: arbitrary JSON must never panic, and every accepted trace
// must round-trip identically.
func FuzzReadTrace(f *testing.F) {
	f.Add(`[]`)
	f.Add(`[{"id":0,"workload":"w","category":"software-redundant","racks":2,"power_per_rack_watts":1000,"flex_power_fraction":0}]`)
	f.Add(`[{"id":1,"workload":"v","category":"non-redundant-capable","racks":5,"power_per_rack_watts":14400,"flex_power_fraction":0.8}]`)
	f.Add(`not json`)
	f.Add(`[{"category":"martian"}]`)
	f.Fuzz(func(t *testing.T, input string) {
		trace, err := ReadTrace(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, trace); err != nil {
			t.Fatalf("accepted trace failed to encode: %v", err)
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if len(again) != len(trace) {
			t.Fatalf("round trip changed length: %d vs %d", len(again), len(trace))
		}
		for i := range again {
			if again[i] != trace[i] {
				t.Fatalf("round trip changed deployment %d", i)
			}
		}
	})
}

// FuzzImpactFunction: any accepted vertex set must produce a bounded,
// monotone interpolation.
func FuzzImpactFunction(f *testing.F) {
	f.Add(0.0, 0.0, 0.5, 0.3, 1.0, 1.0)
	f.Add(0.2, 0.1, 0.4, 0.1, 0.9, 0.8)
	f.Add(-1.0, 2.0, 0.5, 0.5, 2.0, -1.0)
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, x3, y3 float64) {
		fn, err := impact.New("fuzz", []impact.Point{
			{Fraction: x1, Impact: y1},
			{Fraction: x2, Impact: y2},
			{Fraction: x3, Impact: y3},
		})
		if err != nil {
			return
		}
		prev := -1.0
		for i := 0; i <= 100; i++ {
			v := fn.At(float64(i) / 100)
			if v < 0 || v > 1 {
				t.Fatalf("impact %v out of [0,1]", v)
			}
			if v < prev-1e-12 {
				t.Fatalf("impact not monotone at %d: %v < %v", i, v, prev)
			}
			prev = v
		}
	})
}
