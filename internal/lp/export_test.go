package lp

// Clone deep-copies the problem (constraint coefficient slices included).
func (p *Problem) Clone() *Problem {
	q := &Problem{Maximize: p.Maximize}
	q.Objective = append([]float64(nil), p.Objective...)
	q.Constraints = make([]Constraint, len(p.Constraints))
	for i, c := range p.Constraints {
		q.Constraints[i] = Constraint{
			Coeffs: append([]float64(nil), c.Coeffs...),
			Sense:  c.Sense,
			RHS:    c.RHS,
		}
	}
	return q
}
