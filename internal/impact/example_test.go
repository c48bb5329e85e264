package impact_test

import (
	"fmt"

	"flex/internal/impact"
)

// ExampleNew defines a custom workload impact function.
func ExampleNew() {
	// A stateful service: 10% growth buffer is free to shut down, the
	// working set degrades linearly, the last 10% is critical.
	f, _ := impact.New("my-service", []impact.Point{
		{Fraction: 0, Impact: 0},
		{Fraction: 0.1, Impact: 0},
		{Fraction: 0.9, Impact: 0.6},
		{Fraction: 0.95, Impact: 1},
	})
	fmt.Printf("impact at 5%%: %.2f\n", f.At(0.05))
	fmt.Printf("impact at 50%%: %.2f\n", f.At(0.5))
	fmt.Printf("critical at 95%%: %v\n", f.At(0.95) >= 1)
	// Output:
	// impact at 5%: 0.00
	// impact at 50%: 0.30
	// critical at 95%: true
}
