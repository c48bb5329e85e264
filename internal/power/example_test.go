package power_test

import (
	"fmt"
	"time"

	"flex/internal/power"
)

// ExampleTripCurve_Tolerance shows the overload tolerance Flex designs
// against.
func ExampleTripCurve_Tolerance() {
	curve := power.EndOfLifeTripCurve
	fmt.Println("tolerance at 133% load:", curve.Tolerance(4.0/3.0))
	fmt.Println("within the Flex budget:", curve.Tolerance(4.0/3.0) >= 10*time.Second)
	// Output:
	// tolerance at 133% load: 10s
	// within the Flex budget: true
}
