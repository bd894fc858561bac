// Fixture: a local identifier shadowing the time import. With type
// information the check must recognise that time.Sleep() here calls the
// fake clock, not the package.
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
