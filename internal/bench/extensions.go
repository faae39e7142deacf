package bench

import (
	"time"

	"neisky/internal/betweenness"
	"neisky/internal/core"
	"neisky/internal/dataset"
	"neisky/internal/dynsky"
	"neisky/internal/mis"
	"neisky/internal/rng"
)

// RunExtensions exercises the features built beyond the paper: the
// ε-approximate skyline, dynamic maintenance, group betweenness with
// skyline pruning, and the independent-set reduction. The sharded
// engine's worker sweep lives in RunAblation.
func RunExtensions(cfg Config) {
	cfg.fill()
	g, err := dataset.Load("livejournal-sim", cfg.Scale)
	if err != nil {
		panic(err)
	}
	cfg.printf("== Extensions (beyond the paper) on livejournal-sim (%s) ==\n", g.Stats())

	cfg.printf("-- ε-approximate skyline --\n%8s %10s %12s\n", "ε", "|R_ε|", "time")
	for _, eps := range []float64{0, 0.1, 0.2, 0.4} {
		var res *core.Result
		t := timed(func() { res = core.ApproxSkyline(g, eps, core.Options{}) })
		cfg.printf("%8.1f %10d %12s\n", eps, len(res.Skyline), t.Round(time.Microsecond))
	}

	cfg.printf("-- dynamic maintenance (1000 mixed updates) --\n")
	m := dynsky.New(g)
	r := rng.New(cfg.Seed)
	updT := timed(func() {
		for i := 0; i < 1000; i++ {
			u, v := int32(r.Intn(m.N())), int32(r.Intn(m.N()))
			if u == v {
				continue
			}
			if m.Has(u, v) {
				m.RemoveEdge(u, v)
			} else {
				m.AddEdge(u, v)
			}
		}
	})
	recT := timed(func() { core.FilterRefineSky(m.Graph(), core.Options{}) })
	cfg.printf("per-update: %s   full recompute: %s   |R|=%d (verified %v)\n",
		(updT / 1000).Round(time.Microsecond), recT.Round(time.Microsecond),
		m.SkylineSize(),
		core.EqualSkylines(m.Skyline(), core.FilterRefineSky(m.Graph(), core.Options{}).Skyline))

	// Group betweenness on a smaller graph (quadratic evaluation).
	gb, err := dataset.Load("notredame-sim", cfg.Scale*0.3)
	if err != nil {
		panic(err)
	}
	cfg.printf("-- group betweenness maximization (k=2, 16 sampled sources, %s) --\n", gb.Stats())
	var baseRes, skyRes *betweenness.Result
	baseT := timed(func() { baseRes = betweenness.BaseGB(gb, 2, 16, 1) })
	skyT := timed(func() { skyRes = betweenness.NeiSkyGB(gb, 2, 16, 1) })
	cfg.printf("BaseGB:   %12s value=%.1f calls=%d\n", baseT.Round(time.Millisecond), baseRes.Value, baseRes.GainCalls)
	cfg.printf("NeiSkyGB: %12s value=%.1f calls=%d\n", skyT.Round(time.Millisecond), skyRes.Value, skyRes.GainCalls)

	cfg.printf("-- independent set via neighborhood-inclusion reduction --\n")
	forced, kernel, inclusionRemoved := mis.Reduce(g)
	greedy := mis.Greedy(g)
	cfg.printf("forced=%d kernel=%d inclusion-removed=%d greedy-IS=%d of n=%d\n",
		len(forced), len(kernel), inclusionRemoved, len(greedy.Set), g.N())
}
