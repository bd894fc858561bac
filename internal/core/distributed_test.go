package core

import (
	"net"
	"sync"
	"testing"
	"time"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/rng"
)

// TestRunRankDistributed runs the parallel algorithm over the
// multi-process transport (mpi.ProcWorld): each "process" is simulated by
// a goroutine with its own world membership and its own copy of the
// graph, exactly as edgeswitch -coordinator does across real OS processes.
func TestRunRankDistributed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	const p = 3
	const tOps = int64(1500)
	base, err := gen.ErdosRenyi(rng.New(1), 600, 3600)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, p)
	var res *Result
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			// Each "process" loads its own copy of the graph.
			g := base.Clone(rng.New(2))
			pw, err := mpi.JoinDistributed(rank, p, addr, 5*time.Second)
			if err != nil {
				errs[rank] = err
				return
			}
			defer pw.Close()
			errs[rank] = pw.Run(func(c *mpi.Comm) error {
				r, err := RunRank(c, g, tOps, Config{
					Scheme: SchemeHPU, Seed: 7, StepSize: 500,
				})
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					res = r
				}
				return nil
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if res == nil {
		t.Fatal("rank 0 returned no result")
	}
	if res.Ops+res.Forfeited != tOps {
		t.Fatalf("accounting: %+v", res)
	}
	if err := res.Graph.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	if !sameDegrees(degreeMultiset(base), degreeMultiset(res.Graph)) {
		t.Fatal("degree multiset changed over the distributed transport")
	}
	if res.Steps != 3 {
		t.Fatalf("steps %d", res.Steps)
	}
}
