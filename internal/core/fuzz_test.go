package core

import (
	"testing"

	"neisky/internal/graph"
)

// FuzzSkylineOracle decodes arbitrary bytes into a small graph and
// checks that every algorithm agrees with the brute-force oracle. The
// sharded engine runs with the small-graph cutoff off, so its worker
// pool sees every fuzzed graph instead of the serial fallback.
func FuzzSkylineOracle(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2})
	f.Add([]byte{8, 0, 1, 0, 2, 0, 3, 1, 2, 4, 5})
	f.Add([]byte{1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%16) + 1
		b := graph.NewBuilder(n)
		for i := 1; i+1 < len(data) && i < 64; i += 2 {
			b.AddEdge(int32(data[i])%int32(n), int32(data[i+1])%int32(n))
		}
		g := b.Build()
		oracle := BruteForce(g)
		for _, res := range []*Result{
			BaseSky(g, Options{}),
			FilterRefineSky(g, Options{}),
			FilterRefineSky(g, Options{FullTwoHopScan: true}),
			Base2Hop(g, Options{}),
			BaseCSet(g, Options{}),
			ShardedFilterRefineSky(g, Options{NoParallelCutoff: true}, ShardOptions{Shards: 1, Workers: 2}),
			ShardedFilterRefineSky(g, Options{NoParallelCutoff: true}, ShardOptions{Shards: 3, Workers: 2}),
		} {
			if !EqualSkylines(res.Skyline, oracle.Skyline) {
				t.Fatalf("skyline mismatch on fuzzed graph %v: %v vs %v",
					g.EdgeList(), res.Skyline, oracle.Skyline)
			}
		}
	})
}
