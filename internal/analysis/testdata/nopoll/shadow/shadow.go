// Fixture: a local identifier shadowing the time import. Read from
// syntax alone, time.Sleep() here is taken for the package's although it
// calls the fake clock: the check overapproximates and fires.
package shadow

import "time"

type fakeClock struct{}

func (fakeClock) Sleep(time.Duration) {}

func spin(ready func() bool) {
	time := fakeClock{}
	for !ready() {
		time.Sleep(1)
	}
}
