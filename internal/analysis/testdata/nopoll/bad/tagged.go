//go:build esdebug

// Fixture: build-tagged files are exempt (debug instrumentation gate).
package bad

import "time"

func debugSpin(ready func() bool) {
	for !ready() {
		time.Sleep(time.Millisecond)
	}
}
