package main

import (
	"edgeswitch/internal/core"
	"edgeswitch/internal/gen"
	"edgeswitch/internal/gen/pergen"
)

// Every workload randomizes to this visit rate on ranks goroutine ranks.
const (
	targetX = 0.9
	ranks   = 2
)

// workload is one fixed configuration of the run the paper defines:
// generator spec → EdgeHash at visit rate targetX. The names and reasons
// are repeated in BENCHMARK.json; the test pins the two against each
// other.
type workload struct {
	name string
	why  string

	algo   core.Algorithm
	model  pergen.Model
	n      int // vertices; ≈ 10·n/2 (contact) or 10·n (pa) edges
	scheme core.Scheme
	tcp    bool
	// steps > 0 divides t into that many steps; stepSize > 0 fixes the
	// step size instead. Curveball ignores both (one round per step).
	steps    int64
	stepSize int64
	// spill runs the partitions through the tiered store under a soft
	// memory limit of memLimitMiB for the timed reps.
	spill       bool
	memLimitMiB int64
}

func (w workload) spec(seed uint64) pergen.Spec {
	sp := pergen.Spec{Model: w.model, Seed: seed, N: w.n}
	if w.model == pergen.ModelPA {
		sp.D = 10
	} else {
		sp.Contact = gen.ContactConfig{AvgDegree: 10, CommunitySize: 40, WithinFrac: 0.8}
	}
	return sp
}

// config returns the engine configuration of one rep. t is the operation
// budget for the workload's spec.
func (w workload) config(sp *pergen.Spec, seed uint64, t int64) core.Config {
	cfg := core.Config{
		Ranks:           ranks,
		Algorithm:       w.algo,
		TargetVisitRate: targetX,
		Scheme:          w.scheme,
		Seed:            seed,
		UseTCP:          w.tcp,
		SkipResult:      true,
		DistributedGen:  sp,
		StepSize:        w.stepSize,
	}
	if w.steps > 0 {
		cfg.StepSize = (t + w.steps - 1) / w.steps
	}
	return cfg
}

// workloads is the fixed matrix. Sizes are chosen so that one rep takes
// 1.5–3.5 s on a 2-core host and a 20 s run holds at least six reps (the
// README gives the measured rep times and why the graphs are not larger).
var workloads = []workload{
	{
		name: "es-pa",
		why:  "edge-switch on a heavy-tailed 5e5-edge PA graph, HP-D, mem, 10 steps: random-access store ops and the conversation protocol dominate",
		algo: core.AlgoEdgeSwitch, model: pergen.ModelPA, n: 50_000, scheme: core.SchemeHPD, steps: 10,
	},
	{
		name: "es-small-steps-tcp",
		why:  "edge-switch on a 1e5-edge contact graph, CP, loopback TCP, 40-op steps: latency-bound, step collectives and framing dominate",
		algo: core.AlgoEdgeSwitch, model: pergen.ModelContact, n: 20_000, scheme: core.SchemeCP, tcp: true, stepSize: 40,
	},
	{
		name: "cb-pa",
		why:  "curveball on the es-pa graph, mem: scan-shaped drain/trade/rebuild of the same store, deterministic so EdgeHash is checked",
		algo: core.AlgoCurveball, model: pergen.ModelPA, n: 50_000, scheme: core.SchemeHPD,
	},
	{
		name: "cb-pa-spill",
		why:  "cb-pa through the tiered mmap store under a soft memory limit: adds segment codec, overlay promotion and compaction",
		algo: core.AlgoCurveball, model: pergen.ModelPA, n: 50_000, scheme: core.SchemeHPD, spill: true, memLimitMiB: 64,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
