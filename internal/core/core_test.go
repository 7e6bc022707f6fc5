package core

import (
	"testing"
)

func TestRegistryCardinalitiesMatchTable1(t *testing.T) {
	// Table 1: 52 lock-step (we register 53 base names incl. Emanon6),
	// 4 sliding, 7 elastic, 4 kernel, 4 embedding.
	want := map[Category]int{
		LockStep:  53,
		Sliding:   4,
		Elastic:   7,
		Kernel:    4,
		Embedding: 4,
	}
	for c, n := range want {
		if got := len(ByCategory(c)); got != n {
			t.Errorf("category %s has %d entries, want %d", c, got, n)
		}
	}
	if got := len(registry); got != 72 {
		t.Errorf("total registry size %d, want 72", got)
	}
}

func TestLookupKnownMeasures(t *testing.T) {
	for _, name := range []string{"euclidean", "lorentzian", "nccc", "dtw", "msm", "kdtw", "grail"} {
		e, err := Lookup(name)
		if err != nil {
			t.Errorf("Lookup(%s): %v", name, err)
			continue
		}
		if e.Name != name {
			t.Errorf("Lookup(%s).Name = %s", name, e.Name)
		}
	}
	// Case-insensitive.
	if _, err := Lookup("DTW"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("expected error for unknown measure")
	}
}

func TestTunableMeasuresHaveGrids(t *testing.T) {
	tunable := []string{"minkowski", "dtw", "lcss", "edr", "msm", "twe", "swale", "rbf", "sink", "gak", "kdtw"}
	for _, name := range tunable {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.Grid.Candidates) == 0 {
			t.Errorf("%s should carry a Table 4 grid", name)
		}
	}
	// Parameter-free examples.
	for _, name := range []string{"euclidean", "lorentzian", "nccc"} {
		e, _ := Lookup(name)
		if len(e.Grid.Candidates) != 0 {
			t.Errorf("%s should be parameter-free", name)
		}
	}
}

func TestEmbeddingEntriesHaveNoInstance(t *testing.T) {
	for _, e := range ByCategory(Embedding) {
		if e.Measure != nil {
			t.Errorf("embedding %s should require fitting (nil Measure)", e.Name)
		}
	}
	for _, c := range []Category{LockStep, Sliding, Elastic, Kernel} {
		for _, e := range ByCategory(c) {
			if e.Measure == nil {
				t.Errorf("%s/%s missing default instance", c, e.Name)
			}
		}
	}
}

func TestNewEmbedder(t *testing.T) {
	for _, name := range []string{"grail", "rws", "spiral", "sidl"} {
		e, err := NewEmbedder(name, 1)
		if err != nil {
			t.Errorf("NewEmbedder(%s): %v", name, err)
			continue
		}
		if e == nil {
			t.Errorf("NewEmbedder(%s) returned nil", name)
		}
	}
	if _, err := NewEmbedder("unknown", 1); err == nil {
		t.Error("expected error for unknown embedder")
	}
}

func TestCategoriesOrder(t *testing.T) {
	cs := Categories()
	if len(cs) != 5 || cs[0] != LockStep || cs[4] != Embedding {
		t.Fatalf("categories = %v", cs)
	}
}

func TestDefaultInstancesComputeDistances(t *testing.T) {
	x := []float64{0, 1, 0, -1, 0, 1, 0, -1}
	y := []float64{1, 0, -1, 0, 1, 0, -1, 0}
	for _, c := range []Category{LockStep, Sliding, Elastic, Kernel} {
		for _, e := range ByCategory(c) {
			d := e.Measure.Distance(x, y)
			if d != d { // NaN check
				t.Errorf("%s returned NaN", e.Name)
			}
		}
	}
}

func TestBaseName(t *testing.T) {
	if baseName("minkowski[p=0.5]") != "minkowski" {
		t.Error("suffix not stripped")
	}
	if baseName("euclidean") != "euclidean" {
		t.Error("plain name altered")
	}
}
