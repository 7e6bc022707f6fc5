// Package core ties the five measure categories together into a single
// registry: every measure of the paper is resolvable by name, annotated
// with its category and (when tunable) its Table 4 parameter grid. The
// command-line tools and examples use the registry to select measures
// without hard-coding the inventory.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/elastic"
	"repro/internal/embedding"
	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/sliding"
)

// Category is one of the paper's five measure categories.
type Category string

// The five categories of Table 1.
const (
	LockStep  Category = "lock-step"
	Sliding   Category = "sliding"
	Elastic   Category = "elastic"
	Kernel    Category = "kernel"
	Embedding Category = "embedding"
)

// Entry describes one registered measure.
type Entry struct {
	// Name is the registry key (the base name, without parameter suffixes).
	Name string
	// Category is the measure's Table 1 category.
	Category Category
	// Measure is the default (unsupervised) instance; nil for embeddings,
	// which require fitting (use NewEmbedder).
	Measure measure.Measure
	// Grid is the Table 4 supervised grid; empty Candidates when the
	// measure is parameter-free.
	Grid eval.Grid
}

// registry holds every measure keyed by base name.
var registry = buildRegistry()

func buildRegistry() map[string]Entry {
	grids := map[string]eval.Grid{}
	for _, g := range eval.Grids() {
		grids[g.Name] = g
	}
	r := map[string]Entry{}
	add := func(c Category, name string, m measure.Measure) {
		name = baseName(name)
		if _, dup := r[name]; dup {
			panic(fmt.Sprintf("core: duplicate registry entry %q", name))
		}
		r[name] = Entry{Name: name, Category: c, Measure: m, Grid: grids[name]}
	}
	// Each package's All list holds its default instances; the elastic and
	// kernel ones are the unsupervised rows of Tables 5 and 6.
	for _, cat := range []struct {
		c  Category
		ms []measure.Measure
	}{
		{LockStep, lockstep.All()},
		{Sliding, sliding.All()},
		{Elastic, elastic.All()},
		{Kernel, kernel.All()},
	} {
		for _, m := range cat.ms {
			add(cat.c, m.Name(), m)
		}
	}
	// Embeddings require fitting; they are registered without an instance.
	for _, e := range embedding.All(0) {
		add(Embedding, e.Name(), nil)
	}
	return r
}

// baseName strips a parameter suffix: "minkowski[p=0.5]" -> "minkowski".
func baseName(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		return name[:i]
	}
	return name
}

// Lookup resolves a measure entry by base name (case-insensitive).
func Lookup(name string) (Entry, error) {
	e, ok := registry[strings.ToLower(name)]
	if !ok {
		return Entry{}, fmt.Errorf("core: unknown measure %q", name)
	}
	return e, nil
}

// ByCategory returns the entries of one category, sorted by name.
func ByCategory(c Category) []Entry {
	var out []Entry
	for _, e := range registry {
		if e.Category == c {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Categories returns the five categories in the paper's order.
func Categories() []Category {
	return []Category{LockStep, Sliding, Elastic, Kernel, Embedding}
}

// NewEmbedder instantiates an embedding measure's embedder by name at the
// paper's recommended parameters, with the given seed.
func NewEmbedder(name string, seed int64) (embedding.Embedder, error) {
	for _, e := range embedding.All(seed) {
		if baseName(e.Name()) == strings.ToLower(name) {
			return e, nil
		}
	}
	return nil, fmt.Errorf("core: unknown embedding %q", name)
}
