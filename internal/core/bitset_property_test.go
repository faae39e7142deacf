package core

import (
	"fmt"
	"testing"

	"neisky/internal/gen"
	"neisky/internal/graph"
)

// Property test for the hub-bitmap fast path: on ER and Chung–Lu graphs
// dense enough to materialize hub bitmaps, every bitset-kernel algorithm
// must produce the same skyline as (a) the brute-force oracle, which
// deliberately never touches the hub index, and (b) its own legacy
// merge-path run under DisableHubIndex — across option combinations and
// sharded-engine worker counts.

func propertyGraphs() []struct {
	name string
	g    *graph.Graph
} {
	var out []struct {
		name string
		g    *graph.Graph
	}
	add := func(name string, g *graph.Graph) {
		out = append(out, struct {
			name string
			g    *graph.Graph
		}{name, g})
	}
	// ER at densities that straddle the hub threshold (θ ≥ 9): sparse
	// graphs exercise the no-hub fallback inside the hub index, dense
	// ones the word-AND kernels.
	add("er-sparse", gen.ER(150, 0.03, 1))
	add("er-mid", gen.ER(120, 0.12, 2))
	add("er-dense", gen.ER(80, 0.35, 3))
	add("er-deltap", gen.ERDeltaP(100, 1.5, 4))
	// Chung–Lu / power-law: heavy-tailed degrees mean a few big hubs
	// and many low-degree vertices probing against them.
	add("chunglu-2.2", gen.PowerLaw(400, 1600, 2.2, 5))
	add("chunglu-2.8", gen.PowerLaw(300, 900, 2.8, 6))
	// Structured extremes.
	add("star", gen.Star(64))
	add("clique", gen.Clique(24))
	return out
}

// shardedWith runs the sharded engine on w workers with the small-graph
// cutoff off, so the property graphs reach the worker pool.
func shardedWith(w int) func(*graph.Graph, Options) *Result {
	return func(g *graph.Graph, o Options) *Result {
		o.NoParallelCutoff = true
		return ShardedFilterRefineSky(g, o, ShardOptions{Workers: w})
	}
}

func TestBitsetKernelsMatchOracle(t *testing.T) {
	type algo struct {
		name string
		run  func(*graph.Graph, Options) *Result
	}
	algos := []algo{
		{"FilterRefineSky", FilterRefineSky},
		{"Base2Hop", Base2Hop},
		{"BaseCSet", BaseCSet},
		{"Sharded1", shardedWith(1)},
		{"Sharded2", shardedWith(2)},
		{"Sharded8", shardedWith(8)},
	}
	optsCombos := []Options{
		{},
		{KeepIsolated: true},
		{PendantFilter: true},
		{KeepIsolated: true, PendantFilter: true},
		{DisableBloom: true},
	}
	for _, tc := range propertyGraphs() {
		oracle := BruteForce(tc.g)
		for _, opts := range optsCombos {
			label := fmt.Sprintf("%s/%+v", tc.name, opts)
			for _, a := range algos {
				hub := a.run(tc.g, opts)
				// Legacy merge path: identical options plus
				// DisableHubIndex must agree bit for bit.
				legacyOpts := opts
				legacyOpts.DisableHubIndex = true
				legacy := a.run(tc.g, legacyOpts)
				if !EqualSkylines(hub.Skyline, legacy.Skyline) {
					t.Fatalf("%s %s: hub path %d vertices != legacy path %d",
						label, a.name, len(hub.Skyline), len(legacy.Skyline))
				}
				// BruteForce implements the bare definition, which
				// drops isolated vertices like the default options do;
				// it is only a valid oracle without KeepIsolated.
				if !opts.KeepIsolated {
					if !EqualSkylines(hub.Skyline, oracle.Skyline) {
						t.Fatalf("%s %s: skyline %d vertices != oracle %d",
							label, a.name, len(hub.Skyline), len(oracle.Skyline))
					}
				}
			}
		}
	}
}

// TestHubIndexActuallyEngaged guards the test above against silently
// degenerating: at least one property graph must materialize hub
// bitmaps, or the fast path is never exercised.
func TestHubIndexActuallyEngaged(t *testing.T) {
	engaged := 0
	for _, tc := range propertyGraphs() {
		if tc.g.Hub().Hubs() > 0 {
			engaged++
		}
	}
	if engaged < 3 {
		t.Fatalf("only %d property graphs have hub bitmaps; fast path under-tested", engaged)
	}
}
