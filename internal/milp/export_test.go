package milp

import "flex/internal/lp"

// Test helpers for the external test package, which exists because it
// imports internal/placement for the batch ILP and this package cannot.
var (
	RandomKnapsack = randomKnapsack
	SameResult     = sameResult
)

// SetWarmHook installs h to see every dive child's reduced LP, its result
// and whether the warm re-solve stood, and returns what removes it.
func SetWarmHook(h func(sub *lp.Problem, r lp.Result, warm bool)) (restore func()) {
	warmHook = h
	return func() { warmHook = nil }
}
