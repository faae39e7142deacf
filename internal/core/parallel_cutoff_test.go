package core

import (
	"testing"

	"neisky/internal/gen"
)

// TestParallelCutoffFallsBackToSerial pins the cutoff decision itself:
// Table-I-small graphs route to the serial engine, the ablation flag
// and genuinely large graphs do not.
func TestParallelCutoffFallsBackToSerial(t *testing.T) {
	small := gen.PowerLaw(4500, 13000, 2.3, 7)
	if small.N()+2*small.M() >= parallelCutoff {
		t.Fatalf("test graph grew past the cutoff: n+2m = %d", small.N()+2*small.M())
	}
	if !underParallelCutoff(small, Options{}) {
		t.Errorf("small graph (n+2m = %d) should fall back to serial", small.N()+2*small.M())
	}
	if underParallelCutoff(small, Options{NoParallelCutoff: true}) {
		t.Error("NoParallelCutoff must force the sharded path")
	}
	big := gen.PowerLaw(20000, 60000, 2.3, 7)
	if big.N()+2*big.M() < parallelCutoff {
		t.Fatalf("big test graph under the cutoff: n+2m = %d", big.N()+2*big.M())
	}
	if underParallelCutoff(big, Options{}) {
		t.Error("large graph must keep the sharded path")
	}

	// The fallback must be invisible in results: same skyline, same
	// candidates, no error.
	seq := FilterRefineSky(small, Options{})
	par := ShardedFilterRefineSky(small, Options{}, ShardOptions{Workers: 8})
	if par.Err != nil || par.Truncated {
		t.Fatalf("fallback run failed: %v", par.Err)
	}
	if !EqualSkylines(par.Skyline, seq.Skyline) || !EqualSkylines(par.Candidates, seq.Candidates) {
		t.Fatalf("fallback result differs from serial")
	}
}

// BenchmarkParallelCutoff measures the tradeoff the cutoff encodes, on
// a youtube-sim-sized graph (below the cutoff):
//
//	Auto    — ShardedFilterRefineSky with the cutoff active (serial fallback)
//	Forced  — the sharded path via the NoParallelCutoff ablation
//	Serial  — the serial engine called directly, the floor Auto should hit
//
// Auto regressing toward Forced (goroutine spawn + shared-cursor cache
// bouncing on ~300µs of real work) is the regression this benchmark
// exists to catch.
func BenchmarkParallelCutoff(b *testing.B) {
	g := gen.PowerLaw(4500, 13000, 2.3, 7)
	if g.N()+2*g.M() >= parallelCutoff {
		b.Fatalf("benchmark graph grew past the cutoff: n+2m = %d", g.N()+2*g.M())
	}
	g.Hub() // amortize the lazy index like the JSON benchmark does
	b.Run("Auto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ShardedFilterRefineSky(g, Options{}, ShardOptions{Workers: 8})
		}
	})
	b.Run("Forced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ShardedFilterRefineSky(g, Options{NoParallelCutoff: true}, ShardOptions{Workers: 8})
		}
	})
	b.Run("Serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FilterRefineSky(g, Options{})
		}
	})
}
