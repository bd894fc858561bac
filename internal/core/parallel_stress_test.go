package core

import (
	"testing"
)

// TestParallelStressManyRanksSmallSteps is the engine's race gate: 8
// ranks, deliberately small steps (so the conversation protocol, the
// end-of-step handshake and the sanitizer's collectives all fire many
// times) on both the mailbox and loopback-TCP transports, with the
// invariant sanitizer verifying the full distributed state at every step
// boundary. Run it under `go test -race ./internal/core/...`. Message
// interleaving makes individual runs differ even per seed (the protocol
// is asynchronous), but the sanitized invariants must hold on every
// schedule.
func TestParallelStressManyRanksSmallSteps(t *testing.T) {
	g := testGraph(t, 77, 600, 3600)
	const (
		tOps  = 4000
		steps = 16
	)
	for _, tc := range []struct {
		name   string
		useTCP bool
	}{
		{"mem", false},
		{"tcp", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Parallel(g, tOps, Config{
				Ranks:           8,
				Scheme:          SchemeHPU,
				Seed:            99,
				StepSize:        tOps / steps,
				UseTCP:          tc.useTCP,
				CheckInvariants: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, g, res, tOps)
			if res.Steps != steps {
				t.Fatalf("steps = %d, want %d", res.Steps, steps)
			}
			if res.Forfeited != 0 {
				t.Fatalf("forfeited %d on a healthy graph", res.Forfeited)
			}
		})
	}
}
