package edgeswitch

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestRunSequentialDefaults(t *testing.T) {
	g, err := Generate("erdosrenyi", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(g, Options{Seed: 2}) // default: x=1, sequential
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result == nil || rep.Parallel != nil {
		t.Fatal("sequential report malformed")
	}
	if rep.VisitRate < 0.99 {
		t.Fatalf("visit rate %v after full randomization", rep.VisitRate)
	}
	// Input untouched without InPlace.
	if g.Originals() != g.M() {
		t.Fatal("input graph was mutated")
	}
}

func TestRunInPlace(t *testing.T) {
	g, err := Generate("erdosrenyi", 0.03, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(g, Options{Ops: 500, Seed: 4, InPlace: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result != g {
		t.Fatal("InPlace did not return the same graph")
	}
	if g.Originals() == g.M() {
		t.Fatal("InPlace did not mutate the graph")
	}
}

func TestRunParallel(t *testing.T) {
	g, err := Generate("smallworld", 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(g, Options{Ops: 2000, Ranks: 4, Scheme: HPU, Seed: 6, StepSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Parallel == nil {
		t.Fatal("parallel detail missing")
	}
	if rep.Ops+rep.Forfeited != 2000 {
		t.Fatalf("accounting: %+v", rep)
	}
	if err := rep.Result.CheckSimple(); err != nil {
		t.Fatal(err)
	}
}

func TestTargetOps(t *testing.T) {
	ops, err := TargetOps(1000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// E[T]/2 ≈ -m ln(0.5)/2 ≈ 346.
	if ops < 300 || ops > 400 {
		t.Fatalf("TargetOps = %d", ops)
	}
	if _, err := TargetOps(1000, 2); err == nil {
		t.Fatal("x=2 accepted")
	}
}

func TestRandomGraphRealizesSequence(t *testing.T) {
	degrees := make([]int, 200)
	for i := range degrees {
		degrees[i] = 4 + i%3
	}
	if sum := 4*200 + 0 + 1 + 2; sum%2 != 0 {
		// keep the sequence sum even for the test premise
		degrees[0]++
	}
	// Ensure even sum.
	s := 0
	for _, d := range degrees {
		s += d
	}
	if s%2 == 1 {
		degrees[0]++
	}
	g, err := RandomGraph(degrees, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Degrees()
	for i, d := range degrees {
		if got[i] != d {
			t.Fatalf("vertex %d degree %d, want %d", i, got[i], d)
		}
	}
	if err := g.CheckSimple(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomGraphParallel(t *testing.T) {
	degrees := make([]int, 300)
	for i := range degrees {
		degrees[i] = 6
	}
	g, err := RandomGraph(degrees, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range g.Degrees() {
		if d != 6 {
			t.Fatalf("vertex %d degree %d", i, d)
		}
	}
}

func TestRandomGraphRejectsNonGraphical(t *testing.T) {
	if _, err := RandomGraph([]int{3, 1}, 1, 1); err == nil {
		t.Fatal("non-graphical sequence accepted")
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate("nope", 1, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if len(Datasets()) != 8 {
		t.Fatalf("datasets: %v", Datasets())
	}
}

func TestGraphIORoundTrip(t *testing.T) {
	g, err := NewGraph(5, []Edge{{U: 0, V: 1}, {U: 3, V: 4}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != 2 || g2.N() != 5 {
		t.Fatalf("round trip: n=%d m=%d", g2.N(), g2.M())
	}
}

func TestFileIORoundTrip(t *testing.T) {
	dir := t.TempDir()
	g, err := Generate("erdosrenyi", 0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"g.txt", "g.bin"} {
		path := filepath.Join(dir, name)
		if err := SaveGraphFile(path, g); err != nil {
			t.Fatal(err)
		}
		g2, err := LoadGraphFile(path, 9)
		if err != nil {
			t.Fatal(err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("%s round trip shape mismatch", name)
		}
	}
	if _, err := LoadGraphFile(filepath.Join(dir, "missing.txt"), 1); !os.IsNotExist(err) {
		t.Fatalf("missing file error: %v", err)
	}
}

func TestFacadeMetrics(t *testing.T) {
	// Triangle: clustering 1, avg path 1, ER(g,g)=0.
	g, err := NewGraph(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c := ClusteringCoefficient(g); c != 1 {
		t.Fatalf("clustering %v", c)
	}
	if c := SampledClusteringCoefficient(g, 2, 3); c != 1 {
		t.Fatalf("sampled clustering %v", c)
	}
	if d := AvgShortestPath(g, 3, 4); d != 1 {
		t.Fatalf("avg path %v", d)
	}
	er, err := ErrorRate(g, g, 2)
	if err != nil || er != 0 {
		t.Fatalf("ER(g,g) = %v, %v", er, err)
	}
}

// TestVisitRateEndToEnd mirrors Table 1 through the public API.
func TestVisitRateEndToEnd(t *testing.T) {
	g, err := Generate("erdosrenyi", 0.05, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.3, 0.7} {
		rep, err := Run(g, Options{VisitRate: x, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rep.VisitRate-x) > 0.02 {
			t.Fatalf("x=%v observed %v", x, rep.VisitRate)
		}
	}
}
