package core

import (
	"testing"

	"neisky/internal/gen"
	"neisky/internal/rng"
)

// TestParallelMatchesSequential checks the sharded engine's skyline
// against the serial one on random graphs at several worker counts.
func TestParallelMatchesSequential(t *testing.T) {
	r := rng.New(404)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(r, 2+r.Intn(40), 0.1+0.5*r.Float64())
		seq := FilterRefineSky(g, Options{})
		for _, workers := range []int{2, 4, 8} {
			par := shardedWith(workers)(g, Options{})
			if !EqualSkylines(par.Skyline, seq.Skyline) {
				t.Fatalf("workers=%d: sharded %v != sequential %v (edges %v)",
					workers, par.Skyline, seq.Skyline, g.EdgeList())
			}
		}
	}
}

// TestParallelStatsMerged guards against per-shard counters being
// dropped on the floor when they are merged after the join: a sharded
// run over a graph with real domination work must report non-zero
// PairsExamined and InclusionTests, and the serial candidate count.
func TestParallelStatsMerged(t *testing.T) {
	g := gen.PowerLaw(2000, 8000, 2.2, 99)
	seq := FilterRefineSky(g, Options{})
	if seq.Stats.PairsExamined == 0 {
		t.Fatalf("test graph too easy: sequential PairsExamined == 0")
	}
	for _, workers := range []int{2, 8} {
		par := shardedWith(workers)(g, Options{})
		if par.Stats.PairsExamined == 0 {
			t.Fatalf("workers=%d: PairsExamined lost in merge", workers)
		}
		if par.Stats.InclusionTests == 0 {
			t.Fatalf("workers=%d: InclusionTests lost in merge", workers)
		}
		if par.Stats.CandidateCount != seq.Stats.CandidateCount {
			t.Fatalf("workers=%d: candidate count %d != sequential %d",
				workers, par.Stats.CandidateCount, seq.Stats.CandidateCount)
		}
	}
}

// TestParallelFilterPhaseMatches checks the sharded engine's candidate
// set is exactly the serial filter phase's at several worker counts.
// The name is kept from the phase-split engine it first covered.
func TestParallelFilterPhaseMatches(t *testing.T) {
	r := rng.New(808)
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(r, 5+r.Intn(60), 0.05+0.4*r.Float64())
		seqCand, _, seqStats := FilterPhase(g, Options{})
		for _, workers := range []int{1, 2, 8} {
			res := shardedWith(workers)(g, Options{})
			if res.Err != nil {
				t.Fatalf("workers=%d: unexpected error: %v", workers, res.Err)
			}
			if !EqualSkylines(res.Candidates, seqCand) {
				t.Fatalf("workers=%d: candidates %v != %v", workers, res.Candidates, seqCand)
			}
			if res.Stats.CandidateCount != seqStats.CandidateCount {
				t.Fatalf("workers=%d: candidate count mismatch", workers)
			}
		}
	}
}

func TestParallelOnPowerLaw(t *testing.T) {
	g := gen.PowerLaw(3000, 9000, 2.2, 17)
	seq := FilterRefineSky(g, Options{})
	par := shardedWith(4)(g, Options{})
	if !EqualSkylines(par.Skyline, seq.Skyline) {
		t.Fatalf("sharded disagrees on power-law graph: %d vs %d vertices",
			len(par.Skyline), len(seq.Skyline))
	}
	// Dominators recorded by the sharded run must still be valid.
	for v := int32(0); v < int32(g.N()); v++ {
		if d := par.Dominator[v]; d != v && !Dominates(g, d, v) {
			t.Fatalf("sharded run recorded invalid dominator %d for %d", d, v)
		}
	}
}

// TestParallelSingleWorkerFallsBack runs one worker on a graph below
// the cutoff, where the engine takes the serial path.
func TestParallelSingleWorkerFallsBack(t *testing.T) {
	g := gen.Clique(6)
	res := ShardedFilterRefineSky(g, Options{}, ShardOptions{Workers: 1})
	if len(res.Skyline) != 1 {
		t.Fatalf("fallback wrong: %v", res.Skyline)
	}
}

// TestParallelOptionsRespected checks the options the sharded engine
// honors, or ignores as skyline-neutral, leave its answer equal to the
// serial engine's under the same options.
func TestParallelOptionsRespected(t *testing.T) {
	g := gen.PowerLaw(500, 1500, 2.3, 3)
	for _, opts := range []Options{
		{DisableBloom: true},
		{PendantFilter: true},
		{KeepIsolated: true},
	} {
		seq := FilterRefineSky(g, opts)
		par := shardedWith(4)(g, opts)
		if !EqualSkylines(par.Skyline, seq.Skyline) {
			t.Fatalf("opts %+v: sharded disagrees", opts)
		}
	}
}

func TestParallelEmptyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		g := gen.Path(n)
		seq := FilterRefineSky(g, Options{})
		par := shardedWith(4)(g, Options{})
		if par.Truncated || !EqualSkylines(par.Skyline, seq.Skyline) {
			t.Fatalf("n=%d: sharded %v (truncated %v), serial %v",
				n, par.Skyline, par.Truncated, seq.Skyline)
		}
	}
}
