package power

// Points returns a copy of the curve's points.
func (c TripCurve) Points() []TripPoint {
	ps := make([]TripPoint, len(c.points))
	copy(ps, c.points)
	return ps
}
