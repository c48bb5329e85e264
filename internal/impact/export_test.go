package impact

// Critical reports whether affecting this fraction reaches impact 1, i.e.
// touches racks the workload declared critical.
func (f Function) Critical(frac float64) bool { return f.At(frac) >= 1 }

// Points returns a copy of the function's vertices.
func (f Function) Points() []Point {
	ps := make([]Point, len(f.points))
	copy(ps, f.points)
	return ps
}

// Linear returns a function rising linearly from 0 at fraction 0 to maxI
// at fraction 1.
func Linear(name string, maxI float64) Function {
	return MustNew(name, []Point{{0, 0}, {1, maxI}})
}
