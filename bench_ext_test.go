// Benchmarks for the extension layer: the sharded engine, approximate
// skyline, dynamic maintenance, group betweenness and the MIS
// reduction.
package neisky_test

import (
	"fmt"
	"testing"

	"neisky"
	"neisky/internal/betweenness"
	"neisky/internal/core"
	"neisky/internal/dynsky"
	"neisky/internal/mis"
	"neisky/internal/rng"
)

// BenchmarkParallelSkyline compares the serial engine with the sharded
// engine on 2/4/8 workers.
func BenchmarkParallelSkyline(b *testing.B) {
	g := benchGraph(b, "livejournal-sim", 1)
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.FilterRefineSky(g, core.Options{})
		}
	})
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("sharded-w%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ShardedFilterRefineSky(g, core.Options{}, core.ShardOptions{Workers: w})
			}
		})
	}
}

// BenchmarkApproxSkyline measures the ε-skyline counting scan at
// several miss budgets.
func BenchmarkApproxSkyline(b *testing.B) {
	g := benchGraph(b, "youtube-sim", 1)
	for _, tc := range []struct {
		name string
		eps  float64
	}{{"eps0", 0}, {"eps02", 0.2}, {"eps04", 0.4}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ApproxSkyline(g, tc.eps, core.Options{})
			}
		})
	}
}

// BenchmarkDynamicMaintenance measures per-update cost of the
// maintainer against the cost of full recomputation.
func BenchmarkDynamicMaintenance(b *testing.B) {
	g := benchGraph(b, "youtube-sim", 0.5)
	b.Run("update", func(b *testing.B) {
		m := dynsky.New(g)
		r := rng.New(7)
		n := m.N()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
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
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.FilterRefineSky(g, core.Options{})
		}
	})
}

// BenchmarkGroupBetweenness compares the unrestricted and
// skyline-restricted greedy with sampled sources.
func BenchmarkGroupBetweenness(b *testing.B) {
	g := benchGraph(b, "notredame-sim", 0.3)
	b.Run("BaseGB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			betweenness.BaseGB(g, 2, 16, 1)
		}
	})
	b.Run("NeiSkyGB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			betweenness.NeiSkyGB(g, 2, 16, 1)
		}
	})
}

// BenchmarkMISReduction measures kernelization and the greedy solver.
func BenchmarkMISReduction(b *testing.B) {
	g := benchGraph(b, "wikitalk-sim", 0.5)
	b.Run("reduce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mis.Reduce(g)
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mis.Greedy(g)
		}
	})
}

// BenchmarkVertexBetweenness is the Brandes baseline cost.
func BenchmarkVertexBetweenness(b *testing.B) {
	g := neisky.GeneratePowerLaw(1000, 3000, 2.3, 5)
	for i := 0; i < b.N; i++ {
		neisky.VertexBetweenness(g)
	}
}
