package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/graph"
	"edgeswitch/internal/mpi"
	"edgeswitch/internal/rng"
)

// kinds collects the violation kinds present in a finding list.
func kinds(vs []Violation) map[ViolationKind]bool {
	m := make(map[ViolationKind]bool)
	for _, v := range vs {
		m[v.Kind] = true
	}
	return m
}

// wantKind asserts some finding of the given kind mentions every
// substring (the "actionable message" contract).
func wantKind(t *testing.T, vs []Violation, kind ViolationKind, substrs ...string) {
	t.Helper()
	var ofKind []Violation
	for _, v := range vs {
		if v.Kind != kind {
			continue
		}
		ofKind = append(ofKind, v)
		ok := true
		for _, s := range substrs {
			if !strings.Contains(v.Message, s) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
	}
	if len(ofKind) == 0 {
		t.Fatalf("no %s violation in %v", kind, vs)
	}
	t.Fatalf("no %s violation mentioning %q; got %v", kind, substrs, ofKind)
}

func TestSanitizeCleanGraph(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(40), 200, 800)
	if err != nil {
		t.Fatal(err)
	}
	if vs := Sanitize(g.N(), g.Edges(), NewBaseline(g)); len(vs) != 0 {
		t.Fatalf("clean graph flagged: %v", vs)
	}
	if vs := SanitizeGraph(g, NewBaseline(g)); len(vs) != 0 {
		t.Fatalf("clean graph flagged by SanitizeGraph: %v", vs)
	}
}

func TestSanitizeInjectedSelfLoop(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(41), 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	base := NewBaseline(g)
	edges := append(g.Edges(), graph.Edge{U: 7, V: 7})
	vs := Sanitize(g.N(), edges, base)
	wantKind(t, vs, VSelfLoop, "(7,7)", "self-loop")
	// The loop also bumps the edge count past the baseline.
	wantKind(t, vs, VEdgeCount, "lost or invented")
}

func TestSanitizeDuplicatedEdge(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(42), 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	base := NewBaseline(g)
	e := g.Edges()[0]
	// Duplicate in the reversed orientation: normalization must still
	// detect the collision.
	edges := append(g.Edges(), graph.Edge{U: e.V, V: e.U})
	vs := Sanitize(g.N(), edges, base)
	wantKind(t, vs, VParallelEdge, "appears more than once", "already existed")
	k := kinds(vs)
	if !k[VDegreeDrift] || !k[VEdgeCount] {
		t.Fatalf("duplicate edge should also drift degrees and edge count: %v", vs)
	}
}

func TestSanitizeDroppedEdge(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(43), 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	base := NewBaseline(g)
	edges := g.Edges()[1:] // drop one edge
	vs := Sanitize(g.N(), edges, base)
	wantKind(t, vs, VEdgeCount, "149", "150", "lost or invented")
	wantKind(t, vs, VDegreeDrift, "preserve the degree sequence")
	// Both endpoints of the dropped edge must be reported.
	drifts := 0
	for _, v := range vs {
		if v.Kind == VDegreeDrift {
			drifts++
		}
	}
	if drifts != 2 {
		t.Fatalf("dropped edge should drift exactly 2 degrees, got %d: %v", drifts, vs)
	}
}

func TestSanitizeVertexRange(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 99}}
	vs := Sanitize(10, edges, nil)
	wantKind(t, vs, VVertexRange, "(2,99)", "outside [0,10)")
}

func TestSanitizeCapsRepeatedViolations(t *testing.T) {
	// 100 self-loops must not produce 100 findings.
	edges := make([]graph.Edge, 100)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.Vertex(i), V: graph.Vertex(i)}
	}
	vs := Sanitize(100, edges, nil)
	if len(vs) != maxViolations {
		t.Fatalf("got %d findings, want cap %d", len(vs), maxViolations)
	}
	last := vs[len(vs)-1]
	if !strings.Contains(last.Message, "suppressed") {
		t.Fatalf("cap marker missing: %v", last)
	}
}

// TestEngineSanitizerDetectsDroppedEdge corrupts a live engine (discard
// an owned edge after the baseline is recorded) and asserts both the
// per-step fingerprint check and the end-of-run full pass catch the
// drift with an actionable error.
func TestEngineSanitizerDetectsDroppedEdge(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(44), 60, 240)
	if err != nil {
		t.Fatal(err)
	}
	eng, w := newTestEngine(t, g)
	defer w.Close()
	if err := eng.recordBaseline(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.stepExchange(); err != nil {
		t.Fatalf("clean engine flagged: %v", err)
	}
	sw := es(t, eng)
	e := sw.takeRandomEdge()
	if err := sw.discard(e); err != nil {
		t.Fatal(err)
	}
	_, _, err = eng.stepExchange()
	if err == nil {
		t.Fatal("dropped edge not detected by the step exchange")
	}
	msg := err.Error()
	if !strings.Contains(msg, string(VEdgeCount)) || !strings.Contains(msg, string(VDegreeDrift)) {
		t.Fatalf("error %q should report %s and %s", msg, VEdgeCount, VDegreeDrift)
	}
	// The full end-of-run pass recomputes degrees from the adjacency
	// itself (no delta bookkeeping) and must agree.
	err = eng.verifyBaseline()
	if err == nil {
		t.Fatal("dropped edge not detected by the full baseline pass")
	}
	msg = err.Error()
	if !strings.Contains(msg, string(VEdgeCount)) || !strings.Contains(msg, string(VDegreeDrift)) {
		t.Fatalf("error %q should report %s and %s", msg, VEdgeCount, VDegreeDrift)
	}
}

// TestEngineSanitizerCleanAfterSwitches: an in-flight reinsert round trip
// leaves the engine clean (the degree changes cancel, so the fingerprint
// is 0 again).
func TestEngineSanitizerCleanAfterSwitches(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(45), 60, 240)
	if err != nil {
		t.Fatal(err)
	}
	eng, w := newTestEngine(t, g)
	defer w.Close()
	if err := eng.recordBaseline(); err != nil {
		t.Fatal(err)
	}
	sw := es(t, eng)
	for i := 0; i < 10; i++ {
		e := sw.takeRandomEdge()
		if err := sw.reinsert(e); err != nil {
			t.Fatal(err)
		}
	}
	counts, origs, err := eng.stepExchange()
	if err != nil {
		t.Fatalf("round-tripped engine flagged: %v", err)
	}
	if len(counts) != 1 || counts[0] != g.M() {
		t.Fatalf("step exchange counts %v, want [%d]", counts, g.M())
	}
	if origs != g.M() {
		t.Fatalf("step exchange originals %d, want %d", origs, g.M())
	}
	if err := eng.verifyBaseline(); err != nil {
		t.Fatalf("round-tripped engine flagged by full pass: %v", err)
	}
}

// TestStepExchangeClearsDeltasOnViolation: when the checked step
// exchange reports a violation, it must still consume e.degSig — the
// fingerprint describes drift up to THIS boundary, and leaving it behind
// would double-count the same drift against the next boundary's check
// (or corrupt the picture entirely once the run rolls back).
func TestStepExchangeClearsDeltasOnViolation(t *testing.T) {
	g, err := gen.ErdosRenyi(rng.New(46), 60, 240)
	if err != nil {
		t.Fatal(err)
	}
	eng, w := newTestEngine(t, g)
	defer w.Close()
	if err := eng.recordBaseline(); err != nil {
		t.Fatal(err)
	}
	sw := es(t, eng)
	if err := sw.discard(sw.takeRandomEdge()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.stepExchange(); err == nil {
		t.Fatal("dropped edge not detected")
	}
	if eng.degSig != 0 {
		t.Fatalf("degSig is %#x after a violating exchange; must be cleared on every exit path", eng.degSig)
	}
}

// TestStepExchangeDriftOnOneRank: a degree moved on rank 1 alone of a
// two-rank world is named by both ranks from the same step exchange. The
// fingerprint sum is global, so rank 0 enters the full pass with rank 1;
// a fallback collective entered by one rank alone hangs past the guard.
func TestStepExchangeDriftOnOneRank(t *testing.T) {
	g := testGraph(t, 46, 60, 240)
	// Each corruption moves one degree through the accounting helpers.
	for _, tc := range []struct {
		algo    Algorithm
		corrupt func(e *rankEngine) error
	}{
		// Replace a stored {u,v} with some {u,w}.
		{AlgoEdgeSwitch, func(e *rankEngine) error {
			ed, orig := e.takeLocal()
			for w := 0; w < e.n; w++ {
				if v := graph.Vertex(w); v != ed.U && v != ed.V && e.insertLocal(graph.Edge{U: ed.U, V: v}.Norm(), orig) == nil {
					return nil
				}
			}
			return errors.New("no rewire candidate found")
		}},
		// Bump a carried entry's neighbour to the next free vertex, which
		// keeps its slot's list ascending; the partition stays carried.
		{AlgoCurveball, func(e *rankEngine) error {
			cs := e.carried
			for i, se := range cs {
				last := i+1 == len(cs) || cs[i+1].slot != se.slot
				if int(se.v)+1 < e.n && (last || cs[i+1].v > se.v+1) {
					e.carryOut(se)
					cs[i].v++
					e.carryIn(cs[i])
					return nil
				}
			}
			return errors.New("no carried entry to bump")
		}},
	} {
		t.Run(string(tc.algo), func(t *testing.T) {
			w, err := mpi.NewWorld(2)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			errs := make([]error, 2)
			done := make(chan error, 1)
			go func() {
				done <- w.Run(func(c *mpi.Comm) error {
					e, err := bootstrap(c, graphSource(g), 0, Config{Seed: 5, Scheme: SchemeHPD, Algorithm: tc.algo, CheckInvariants: true})
					if err != nil {
						return err
					}
					defer e.adj.Close()
					if err := e.recordBaseline(); err != nil {
						return err
					}
					if _, _, err := e.stepExchange(); err != nil {
						return fmt.Errorf("rank %d: clean exchange flagged: %w", c.Rank(), err)
					}
					if c.Rank() == 1 {
						if err := tc.corrupt(e); err != nil {
							return err
						}
					}
					_, _, errs[c.Rank()] = e.stepExchange()
					return nil
				})
			}()
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				w.Close()
				t.Fatal("the step exchange hung: one rank entered the full pass alone")
			}
			if err != nil {
				t.Fatal(err)
			}
			// The edge total is intact, carried edges included.
			for r, err := range errs {
				if err == nil || !strings.Contains(err.Error(), string(VDegreeDrift)) || strings.Contains(err.Error(), string(VEdgeCount)) {
					t.Errorf("rank %d: step exchange returned %v, want a %s violation and no %s", r, err, VDegreeDrift, VEdgeCount)
				}
			}
		})
	}
}
