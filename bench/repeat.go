package main

import (
	"fmt"
	"io"
	"math"
)

// compareSets is the repeatability check behind -repeat: per workload and
// end-to-end metric, the first and last set's medians, their relative
// difference and the bound. A host metric outside its bound, an exact
// metric that differs at all, or a fingerprint that moved is an error.
func compareSets(out io.Writer, sets [][]*result) error {
	first, last := sets[0], sets[len(sets)-1]
	bad := 0
	fmt.Fprintf(out, "== repeatability: set 1 against set %d\n", len(sets))
	fmt.Fprintf(out, "  %-16s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "last", "diff", "bound")
	for i, a := range first {
		b := last[i]
		for _, m := range endToEnd {
			va, ok := a.Metrics[m.Name]
			if !ok {
				continue
			}
			vb := b.Metrics[m.Name]
			verdict := ""
			var diff float64
			if m.Bound == 0 {
				if va.Value != vb.Value {
					verdict, diff = "DIFFERS", math.NaN()
					bad++
				}
			} else {
				// Worse is up for "lower" metrics, down for "higher".
				diff = (vb.Value - va.Value) / va.Value
				if m.Better == "higher" {
					diff = -diff
				}
				if math.Abs(diff) > m.Bound {
					verdict = "OUTSIDE"
					bad++
				}
			}
			bound := "exact"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
			}
			fmt.Fprintf(out, "  %-16s %-18s %14.6g %14.6g %+8.2f%% %7s %s\n", a.Workload, m.Name, va.Value, vb.Value, 100*diff, bound, verdict)
		}
		if a.Fingerprint != b.Fingerprint || a.InputHash != b.InputHash {
			fmt.Fprintf(out, "  %-16s fingerprint %s/%s against %s/%s DIFFERS\n", a.Workload, a.InputHash, a.Fingerprint, b.InputHash, b.Fingerprint)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons outside their bounds", bad)
	}
	fmt.Fprintf(out, "  every host metric within its bound; every exact metric and fingerprint identical\n")
	return nil
}
