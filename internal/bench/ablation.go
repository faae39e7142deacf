package bench

import (
	"time"

	"neisky/internal/centrality"
	"neisky/internal/core"
	"neisky/internal/dataset"
)

// RunAblation quantifies each design choice DESIGN.md calls out, on one
// representative dataset: filter variant, Bloom filters, the 2-hop scan
// strategy, Bloom sizing, and the greedy engineering toggles.
func RunAblation(cfg Config) {
	cfg.fill()
	g, err := dataset.Load("wikitalk-sim", cfg.Scale)
	if err != nil {
		panic(err)
	}
	cfg.printf("== Ablations on wikitalk-sim (%s) ==\n", g.Stats())

	type variant struct {
		name string
		opts core.Options
	}
	variants := []variant{
		{"default (exact filter, bloom, pivot scan)", core.Options{}},
		{"pendant-only filter (literal Alg 2)", core.Options{PendantFilter: true}},
		{"no bloom", core.Options{DisableBloom: true}},
		{"full 2-hop scan (literal Alg 3)", core.Options{FullTwoHopScan: true}},
		{"full scan, no dedup", core.Options{FullTwoHopScan: true, NoTwoHopDedup: true}},
		{"bloom 1 word", core.Options{BloomWords: 1}},
		{"bloom 32 words", core.Options{BloomWords: 32}},
	}
	cfg.printf("-- FilterRefineSky variants --\n")
	cfg.printf("%-42s %12s %10s %12s %12s\n", "variant", "time", "|C|", "incl.tests", "bloom rej.")
	for _, v := range variants {
		var res *core.Result
		d := timed(func() { res = core.FilterRefineSky(g, v.opts) })
		cfg.printf("%-42s %12s %10d %12d %12d\n",
			v.name, d.Round(time.Microsecond), len(res.Candidates),
			res.Stats.InclusionTests, res.Stats.BloomRejects)
	}

	cfg.printf("-- sharded engine workers --\n")
	for _, w := range []int{1, 2, 4, 8} {
		d := timed(func() { core.ShardedFilterRefineSky(g, core.Options{}, core.ShardOptions{Workers: w}) })
		cfg.printf("workers=%d: %s\n", w, d.Round(time.Microsecond))
	}

	cfg.printf("-- greedy engineering (group closeness, k=10) --\n")
	type gopt struct {
		name string
		o    centrality.Options
	}
	for _, v := range []gopt{
		{"plain greedy, full BFS", centrality.Options{DisableBatchBFS: true}},
		{"plain greedy, pruned BFS", centrality.Options{PrunedBFS: true, DisableBatchBFS: true}},
		{"plain greedy, batched sweep", centrality.Options{}},
		{"lazy greedy, full BFS", centrality.Options{Lazy: true, DisableBatchBFS: true}},
		{"lazy greedy, pruned BFS", centrality.Options{Lazy: true, PrunedBFS: true, DisableBatchBFS: true}},
		{"lazy greedy, pruned + batched cold start", centrality.Options{Lazy: true, PrunedBFS: true, Workers: cfg.Workers}},
	} {
		var res *centrality.Result
		// Plain greedy over all vertices is O(k·n·m); sample down the
		// graph to keep the plain variants tractable.
		sub, _ := dataset.Load("wikitalk-sim", cfg.Scale*0.25)
		d := timed(func() { res = centrality.Greedy(sub, 10, centrality.CLOSENESS, v.o) })
		cfg.printf("%-28s %12s gain-calls=%d value=%.5f\n",
			v.name, d.Round(time.Millisecond), res.GainCalls, res.Value)
	}
}
