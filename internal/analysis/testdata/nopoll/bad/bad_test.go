// Fixture: _test.go files are exempt from the nopoll check.
package bad

import "time"

func waitInTest(ready func() bool) {
	for !ready() {
		time.Sleep(time.Millisecond)
	}
}
