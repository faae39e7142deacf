package bench

import (
	"fmt"
	"io"
	"time"

	"neisky/internal/centrality"
	"neisky/internal/core"
	"neisky/internal/gen"
	"neisky/internal/rng"
	"neisky/internal/skytree"
)

// The gatebench workload: a small-n, deterministic row per engine
// family (serial skyline = the reference, sharded skyline at S = 8 and
// at the default 4 × workers shards, layered index build + subset
// query, group centrality).
// Small enough for a CI job (seconds), large enough that each row's
// cost is dominated by its engine's hot loop rather than setup noise.
// scripts/bench_compare.go diffs these rows — ratio-normalized against
// GateRefAlgo — between a committed baseline and a fresh run.

// GateConfig parameterizes RunGateJSON.
type GateConfig struct {
	Seed uint64 // generator seed (default 1)
	// Rounds of best-of timing (default 5: gate rows are cheap, and
	// more rounds means less scheduler noise in the committed ratios).
	Rounds int
	Out    io.Writer // progress log; nil silences it
}

func (c *GateConfig) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Rounds <= 0 {
		c.Rounds = 5
	}
}

// RunGateJSON runs the gate workload and writes its rows to w.
func RunGateJSON(w io.Writer, cfg GateConfig) error {
	cfg.fill()
	// One mid-sized power-law graph for the skyline-family rows, a
	// smaller one for the BFS-heavy centrality row.
	g := gen.PowerLaw(20_000, 80_000, 2.5, cfg.Seed)
	cg := gen.PowerLaw(3_000, 12_000, 2.5, cfg.Seed)
	g.Hub()
	g.Sketches()
	g.DegreeSorted()
	cg.Hub()

	tree := skytree.Build(g, skytree.BuildOptions{Workers: 4})
	if tree.Truncated {
		return fmt.Errorf("bench: gate tree build truncated: %w", tree.Err)
	}
	r := rng.New(cfg.Seed + 7)
	sub := make([]int32, 0, g.N()/20)
	for v := int32(0); v < int32(g.N()); v++ {
		if r.Float64() < 0.05 {
			sub = append(sub, v)
		}
	}

	type contender struct {
		name    string
		dataset string
		n, m    int
		run     func()
	}
	contenders := []contender{
		{GateRefAlgo, "powerlaw-20k", g.N(), g.M(), func() {
			core.FilterRefineSky(g, core.Options{})
		}},
		{"ShardedFilterRefineSky-s8", "powerlaw-20k", g.N(), g.M(), func() {
			core.ShardedFilterRefineSky(g, core.Options{}, core.ShardOptions{Shards: 8, Workers: 4})
		}},
		{"ShardedFilterRefineSky-w4", "powerlaw-20k", g.N(), g.M(), func() {
			core.ShardedFilterRefineSky(g, core.Options{}, core.ShardOptions{Workers: 4})
		}},
		{"SkyTreeBuild", "powerlaw-20k", g.N(), g.M(), func() {
			skytree.Build(g, skytree.BuildOptions{Workers: 4})
		}},
		{"SubsetSkyline-tree", "powerlaw-20k", g.N(), g.M(), func() {
			skytree.SubsetSkyline(g, tree, sub)
		}},
		{"GreedyCloseness-k4", "powerlaw-3k", cg.N(), cg.M(), func() {
			sky := core.FilterRefineSky(cg, core.Options{})
			centrality.Greedy(cg, 4, centrality.CLOSENESS,
				centrality.Options{Candidates: sky.Skyline, Lazy: true, PrunedBFS: true})
		}},
	}

	best := make([]int64, len(contenders))
	for i := range best {
		best[i] = -1
	}
	for round := 0; round < cfg.Rounds; round++ {
		for i := range contenders {
			c := &contenders[i]
			d := timed(c.run).Nanoseconds()
			if best[i] < 0 || d < best[i] {
				best[i] = d
			}
			if cfg.Out != nil {
				fmt.Fprintf(cfg.Out, "gate: round %d/%d %-28s %s\n", round+1, cfg.Rounds,
					c.name, time.Duration(d).Round(time.Microsecond))
			}
		}
	}

	rows := make([]BenchRow, len(contenders))
	for i, c := range contenders {
		rows[i] = BenchRow{Algo: c.name, Dataset: c.dataset, N: c.n, M: c.m, NsPerOp: best[i]}
	}
	return flushRows(w, rows, nil)
}
