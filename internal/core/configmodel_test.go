package core

import (
	"testing"

	"edgeswitch/internal/gen"
	"edgeswitch/internal/rng"
)

func TestConfigurationModelBaseline(t *testing.T) {
	r := rng.New(7)
	// Heterogeneous degrees: the configuration model must erase edges.
	degrees := make([]int, 120)
	for i := range degrees {
		degrees[i] = 4
	}
	degrees[0] = 80
	degrees[1] = 80
	res, err := gen.ConfigurationModel(r, degrees)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Graph.CheckSimple(); err != nil {
		t.Fatal(err)
	}
	if res.ErasedLoops+res.ErasedParallel == 0 {
		t.Fatal("expected erased stubs with hub-heavy degrees")
	}
	// Degrees can only shrink, never grow.
	got := res.Graph.Degrees()
	for v, d := range got {
		if d > degrees[v] {
			t.Fatalf("vertex %d degree %d exceeds request %d", v, d, degrees[v])
		}
	}
}

func TestConfigurationModelExactOnLowDegrees(t *testing.T) {
	r := rng.New(8)
	degrees := make([]int, 2000)
	for i := range degrees {
		degrees[i] = 2
	}
	res, err := gen.ConfigurationModel(r, degrees)
	if err != nil {
		t.Fatal(err)
	}
	// With degree 2 on 2000 vertices collisions are rare; realized sum
	// must be close to requested.
	var want, got int64
	for _, d := range degrees {
		want += int64(d)
	}
	for _, d := range res.Graph.Degrees() {
		got += int64(d)
	}
	if got < want*95/100 {
		t.Fatalf("realized degree sum %d far below %d", got, want)
	}
}

func TestConfigurationModelValidation(t *testing.T) {
	r := rng.New(9)
	if _, err := gen.ConfigurationModel(r, []int{1}); err == nil {
		t.Fatal("odd degree sum accepted")
	}
	if _, err := gen.ConfigurationModel(r, []int{-1, 1}); err == nil {
		t.Fatal("negative degree accepted")
	}
	if _, err := gen.ConfigurationModel(r, []int{2, 2}); err == nil {
		t.Fatal("degree >= n accepted")
	}
}
