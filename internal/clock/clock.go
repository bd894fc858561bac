// Package clock is the library's single wall-clock gateway. The
// deterministic packages (internal/core, internal/rng,
// internal/partition) must behave as pure functions of (input, seed,
// config), so they never make decisions from the wall clock. Code in
// those packages that legitimately needs to *measure* elapsed time reads
// it through this package, where tests can substitute a fake clock and
// where every wall-clock dependency of a deterministic path is visible in
// one place.
package clock

import "time"

// nowFunc is the active time source.
var nowFunc = time.Now

// Now returns the current time from the active source.
func Now() time.Time { return nowFunc() }

// Since reports the elapsed time according to the active source.
func Since(t time.Time) time.Duration { return nowFunc().Sub(t) }

// SetForTest replaces the time source and returns a function restoring
// the real clock. Only tests may call it; it is not safe to race with
// concurrent readers, so install the fake before starting any ranks.
func SetForTest(f func() time.Time) (restore func()) {
	prev := nowFunc
	nowFunc = f
	return func() { nowFunc = prev }
}
