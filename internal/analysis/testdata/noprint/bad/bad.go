// Fixture: terminal output from a library package. Checked impersonated
// as internal/metrics (must fire) and cmd/edgeswitch (the exempt
// path).
package fixture

import (
	"fmt"
	"os"
)

func Report(rate float64) {
	fmt.Println("visit rate:", rate)
	fmt.Printf("rate=%f\n", rate)
	fmt.Fprintf(os.Stderr, "rate=%f\n", rate)
	println("debug", rate)
}
