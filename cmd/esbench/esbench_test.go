package main

import (
	"io"
	"regexp"
	"testing"

	"edgeswitch/internal/gen/pergen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/rng"
)

// tiny shrinks a workload to a size the whole matrix runs in seconds.
func tiny(w workload) workload {
	w.n = 2000
	return w
}

func readDef(t *testing.T) benchmarkDef {
	t.Helper()
	var def benchmarkDef
	if err := readJSON("../../BENCHMARK.json", &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// checkEmitted holds one run's report against one declared metric list:
// every declared name with its unit, nothing undeclared.
func checkEmitted(t *testing.T, got map[string]reportValue, declared []metricDef) {
	t.Helper()
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	want := map[string]string{}
	for _, d := range declared {
		want[d.Name] = d.Unit
		if !valid.MatchString(d.Name) {
			t.Errorf("declared name %q is not a valid metric name", d.Name)
		}
		if v, ok := got[d.Name]; !ok {
			t.Errorf("declared metric %s not emitted", d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("metric %s emitted with unit %q, declared %q", d.Name, v.Unit, d.Unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("emitted metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	def := readDef(t)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := def.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
}

func TestEndToEndMetricsAsDeclared(t *testing.T) {
	def := readDef(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // the numbers do not matter here, only the wall time of the test
			rep, err := measure(io.Discard, tiny(w), 11, 0, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < minReps+1 {
				t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			checkEmitted(t, rep.Metrics, def.EndToEnd)
		})
	}
}

func TestPerLayerMetricsAsDeclared(t *testing.T) {
	def := readDef(t)
	// One edge-switch and one curveball workload cover both attribution
	// mixes, both transports and both stores.
	for _, name := range []string{"es-small-steps-tcp", "cb-pa-spill"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, _ := findWorkload(name)
			dir := t.TempDir()
			rep, err := measure(io.Discard, tiny(w), 12, 0, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Errorf("traced run not correct (%d of %d failed)", rep.Failed, rep.Attempted)
			}
			checkEmitted(t, rep.Metrics, def.PerLayer)
			var spans []span
			if err := readJSON(dir+"/trace-"+name+".json", &spans); err != nil {
				t.Fatal(err)
			}
			layers := map[string]bool{}
			for i, s := range spans {
				layers[s.Layer] = true
				if s.EndNs < s.StartNs || s.Parent >= i || s.Workload != name {
					t.Fatalf("malformed span %d: %+v", i, s)
				}
			}
			for _, l := range []string{"core", "pergen", "partition", "rng", "randvar", "graph", "store", "mpi"} {
				if !layers[l] {
					t.Errorf("no span for layer %s", l)
				}
			}
		})
	}
}

func TestVerifyGateTrips(t *testing.T) {
	w, _ := findWorkload("cb-pa")
	r, err := newRunner(tiny(w), 13, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rp := r.rep(0, r.t, false, false)
	if err := rp.check(w.algo); err != nil {
		t.Fatal(err)
	}
	gn, err := pergen.New(r.spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := gn.Full()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGraph(rp.res, ref); err != nil {
		t.Fatalf("intact result rejected: %v", err)
	}

	rp.res.EdgeHash++
	if err := checkGraph(rp.res, ref); err == nil {
		t.Error("wrong EdgeHash accepted")
	}
	rp.res.EdgeHash--

	// Move one edge's endpoint: m is kept, two degrees change.
	g := rp.res.Graph
	e := g.Edges()[0]
	moved := graph.Edge{U: e.U, V: e.V}
	for v := graph.Vertex(0); ; v++ {
		if moved.V = v; v != e.U && v != e.V && !g.HasEdge(moved.Norm()) {
			break
		}
	}
	rnd := rng.New(1)
	g.RemoveEdge(e)
	g.AddModified(moved.Norm(), rnd)
	rp.res.EdgeHash = edgeHash(g)
	if err := checkGraph(rp.res, ref); err == nil {
		t.Error("changed degree sequence accepted")
	}

	rp.res.VisitRate = 0.5
	if err := rp.check(w.algo); err == nil {
		t.Error("visit rate below target accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 9, 7, 7}, [3]float64{2, 5, 7}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "randomize_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "visits_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = f * x
		}
		return out
	}
	noisy := []float64{0.8, 1.3, 0.9, 1.2, 0.7, 1.25}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"within bound", lower, steady, scale(1.05), "unchanged"},
		{"slower", lower, steady, scale(1.2), "REGRESSED"},
		{"faster", lower, steady, scale(0.8), "improved"},
		{"rate up", higher, steady, scale(1.2), "improved"},
		{"rate down", higher, steady, scale(0.8), "REGRESSED"},
		{"noisy side", lower, steady, noisy, "unresolved"},
		{"too few runs", lower, steady[:3], steady, "unresolved"},
	} {
		if got, _, _, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
