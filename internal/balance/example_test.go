package balance_test

import (
	"fmt"

	"lvrm/internal/balance"
)

// Join-the-shortest-queue picks the VRI whose load estimate is lowest.
func ExampleJSQ() {
	loads := []float64{5, 1, 3}
	targets := make([]balance.Target, len(loads))
	for i := range targets {
		i := i
		targets[i] = balance.Target{ID: i, Load: func() float64 { return loads[i] }}
	}
	jsq := balance.NewJSQ()
	fmt.Println("picked VRI", jsq.Pick(targets, nil))
	// Output:
	// picked VRI 1
}
