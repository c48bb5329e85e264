package milp

// Test helpers for the external test package, which exists because it
// imports internal/placement for the batch ILP and this package cannot.
var (
	RandomKnapsack = randomKnapsack
	SameResult     = sameResult
)
