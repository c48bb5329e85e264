// Package impact implements the paper's workload impact functions
// (§IV-D, Figures 8 and 11).
//
// An impact function maps the fraction of a workload's racks that have been
// affected (shut down or throttled) to a perceived performance/availability
// impact in [0, 1]. Flex-Online consults these functions in Algorithm 1 to
// pick, at every step, the corrective action with the minimum impact.
// Impact 0 means no perceivable impact; impact 1 marks racks that are
// critical and must not be touched unless absolutely vital for safety.
package impact

import (
	"fmt"
	"sort"
)

// Point is one vertex of a piecewise-linear impact function.
type Point struct {
	Fraction float64 // fraction of the workload's racks affected, in [0,1]
	Impact   float64 // perceived impact, in [0,1]
}

// Function is a piecewise-linear, monotonically non-decreasing impact
// function. The zero value is the constant-zero function ("no impact").
type Function struct {
	name   string
	points []Point
}

// New builds an impact function from vertices. Fractions must be strictly
// increasing within [0,1]; impacts must be non-decreasing within [0,1].
// The function is linearly interpolated between vertices, extends flat
// from the first vertex to fraction 0 and from the last to fraction 1.
func New(name string, points []Point) (Function, error) {
	if len(points) == 0 {
		return Function{}, fmt.Errorf("impact: function %q needs at least one point", name)
	}
	ps := make([]Point, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Fraction < ps[j].Fraction })
	for i, p := range ps {
		if p.Fraction < 0 || p.Fraction > 1 {
			return Function{}, fmt.Errorf("impact: %q point %d fraction %.3f outside [0,1]", name, i, p.Fraction)
		}
		if p.Impact < 0 || p.Impact > 1 {
			return Function{}, fmt.Errorf("impact: %q point %d impact %.3f outside [0,1]", name, i, p.Impact)
		}
		if i > 0 {
			if p.Fraction == ps[i-1].Fraction {
				return Function{}, fmt.Errorf("impact: %q has duplicate fraction %.3f", name, p.Fraction)
			}
			if p.Impact < ps[i-1].Impact {
				return Function{}, fmt.Errorf("impact: %q impact must be non-decreasing", name)
			}
		}
	}
	return Function{name: name, points: ps}, nil
}

// MustNew is New but panics on error; for static scenario tables.
func MustNew(name string, points []Point) Function {
	f, err := New(name, points)
	if err != nil {
		panic(err)
	}
	return f
}

// At evaluates the function at the given affected fraction, clamping the
// input to [0,1]. The zero Function returns 0 everywhere.
func (f Function) At(frac float64) float64 {
	if len(f.points) == 0 {
		return 0
	}
	if frac <= f.points[0].Fraction {
		return f.points[0].Impact
	}
	last := f.points[len(f.points)-1]
	if frac >= last.Fraction {
		return last.Impact
	}
	i := sort.Search(len(f.points), func(i int) bool { return f.points[i].Fraction >= frac })
	a, b := f.points[i-1], f.points[i]
	t := (frac - a.Fraction) / (b.Fraction - a.Fraction)
	return a.Impact + t*(b.Impact-a.Impact)
}

// Zero returns the constant-zero impact function.
func Zero(name string) Function {
	return Function{name: name, points: []Point{{0, 0}, {1, 0}}}
}

// Figure 8's three production examples.

// Figure8A is a typical non-redundant but cap-able workload (e.g. the VM
// service): incremental impact from throttling any rack, plus a set of
// critical management racks (the last ~10%) that must be protected.
//
//flex:keep EXPERIMENTS.md "Figure 8" is computed from it; BenchmarkFigure8_ImpactFunctions prints it
func Figure8A() Function {
	return MustNew("fig8-A-vmservice", []Point{
		{0, 0.05}, {0.9, 0.5}, {0.92, 1}, {1, 1},
	})
}

// Figure8B is a software-redundant stateless workload: shutting down a
// large share of racks has no impact as load migrates seamlessly.
//
//flex:keep EXPERIMENTS.md "Figure 8" is computed from it; BenchmarkFigure8_ImpactFunctions prints it
func Figure8B() Function {
	return MustNew("fig8-B-stateless", []Point{
		{0, 0}, {0.6, 0}, {0.95, 0.6}, {1, 0.8},
	})
}

// Figure8C is a software-redundant stateful workload: a growth buffer
// (free to shut down), a working set (incremental impact), and critical
// management racks (protected).
//
//flex:keep EXPERIMENTS.md "Figure 8" is computed from it; BenchmarkFigure8_ImpactFunctions prints it
func Figure8C() Function {
	return MustNew("fig8-C-stateful", []Point{
		{0, 0}, {0.15, 0}, {0.85, 0.6}, {0.9, 1}, {1, 1},
	})
}
