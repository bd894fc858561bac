package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/rng"
)

// benchEngine runs RunRank b.N times on one world and reports the
// transport traffic a run costs — msgs/op is the number of payloads
// handed to the transport (what batching shrinks), bytes/op the payload
// volume — plus restarts/op, the protocol work wasted on rejected
// selections.
func benchEngine(b *testing.B, g *graph.Graph, ops int64, useTCP bool, cfg Config) {
	b.Helper()
	var opts []mpi.Option
	if useTCP {
		opts = append(opts, mpi.WithTCP())
	}
	w, err := mpi.NewWorld(cfg.Ranks, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	cfg.SkipResult = true
	var restarts atomic.Int64
	start := w.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := w.Run(func(c *mpi.Comm) error {
			res, err := RunRank(c, g, ops, cfg)
			if err != nil {
				return err
			}
			if res != nil {
				restarts.Add(res.Restarts)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := w.Stats()
	b.ReportMetric(float64(st.Sends-start.Sends)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(st.Bytes-start.Bytes)/float64(b.N), "bytes/op")
	b.ReportMetric(float64(restarts.Load())/float64(b.N), "restarts/op")
}

// BenchmarkEngineStep times one full engine step (a complete RunRank with
// a single-step quota) across the message-plane matrix: both transports,
// two rank counts, sanitizer on/off.
func BenchmarkEngineStep(b *testing.B) {
	n, m, ops := 1200, int64(6000), int64(4000)
	if testing.Short() {
		n, m, ops = 300, int64(1500), int64(800)
	}
	g, err := gen.ErdosRenyi(rng.Split(31, 0), n, m)
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name     string
		sanitize bool
	}{
		{name: "batch"},
		{name: "batch+sanitize", sanitize: true},
	}
	for _, transport := range []string{"mem", "tcp"} {
		for _, p := range []int{2, 8} {
			for _, v := range variants {
				b.Run(fmt.Sprintf("%s/p%d/%s", transport, p, v.name), func(b *testing.B) {
					benchEngine(b, g, ops, transport == "tcp", Config{
						Ranks:           p,
						Scheme:          SchemeHPD,
						Seed:            31,
						CheckInvariants: v.sanitize,
					})
				})
			}
		}
	}
}
