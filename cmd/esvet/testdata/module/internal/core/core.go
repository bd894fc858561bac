// Package core is the golden-test fixture: a tiny module that trips two
// checks at once so the SARIF output pins the diagnostic schema,
// module-relative paths and sort order.
package core

import "math/rand"

// Config configures the fixture run.
type Config struct {
	// Seed seeds the run.
	Seed   int64
	Fanout int
}

// Draw violates norand: randomness outside internal/rng.
func Draw() int { return rand.Int() }
