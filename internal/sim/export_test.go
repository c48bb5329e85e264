package sim

// DefaultUtilizations returns the paper's Figure 12 x-axis range:
// 74%–85% in 1% steps ("no actions are needed at utilizations lower than
// 74% and sustained utilizations higher than 85% are impractical").
func DefaultUtilizations() []float64 {
	var out []float64
	for u := 0.74; u <= 0.851; u += 0.01 {
		out = append(out, u)
	}
	return out
}
