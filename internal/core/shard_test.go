package core

import (
	"context"
	"path/filepath"
	"sort"
	"testing"

	"neisky/internal/gen"
	"neisky/internal/graph"
)

// shardFixtures is the battery every sharded-oracle test sweeps: shapes
// with hubs, ties, pendant chains and mutual-inclusion pairs.
func shardFixtures() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"powerlaw": gen.PowerLaw(400, 1600, 2.5, 7),
		"er":       gen.ER(300, 0.04, 11),
		"ba":       gen.BA(350, 3, 5),
		"clique":   gen.Clique(40),
		"cycle":    gen.Cycle(128),
		"path":     gen.Path(97),
	}
}

// TestShardedMatchesSerialOracle is the core equivalence: for every
// fixture and shard count, the sharded engine's skyline, candidate set
// and dominator array match the serial filter/refine engine's exactly.
func TestShardedMatchesSerialOracle(t *testing.T) {
	for name, g := range shardFixtures() {
		want := FilterRefineSky(g, Options{})
		for _, s := range []int{1, 2, 7, 64} {
			res := ShardedFilterRefineSky(g, Options{NoParallelCutoff: true},
				ShardOptions{Shards: s, Workers: 2})
			if !EqualSkylines(res.Skyline, want.Skyline) {
				t.Errorf("%s shards=%d: skyline %v, want %v", name, s, res.Skyline, want.Skyline)
			}
			if !EqualSkylines(res.Candidates, want.Candidates) {
				t.Errorf("%s shards=%d: candidates %v, want %v", name, s, res.Candidates, want.Candidates)
			}
			for u := range res.Dominator {
				if (res.Dominator[u] == int32(u)) != (want.Dominator[u] == int32(u)) {
					t.Errorf("%s shards=%d: dominator liveness differs at %d: got %d, want %d",
						name, s, u, res.Dominator[u], want.Dominator[u])
				}
			}
			if res.Truncated {
				t.Errorf("%s shards=%d: unexpected truncation", name, s)
			}
		}
	}
}

// TestShardedDisableSketchOracle pins the ablation path: with the
// sketch pre-filter off, every containment check runs exactly and the
// answer is unchanged.
func TestShardedDisableSketchOracle(t *testing.T) {
	g := gen.PowerLaw(400, 1600, 2.5, 7)
	want := FilterRefineSky(g, Options{})
	res := ShardedFilterRefineSky(g, Options{NoParallelCutoff: true},
		ShardOptions{Shards: 7, Workers: 2, DisableSketch: true})
	if !EqualSkylines(res.Skyline, want.Skyline) {
		t.Fatalf("skyline %v, want %v", res.Skyline, want.Skyline)
	}
	if !EqualSkylines(res.Candidates, want.Candidates) {
		t.Fatalf("candidates %v, want %v", res.Candidates, want.Candidates)
	}
	if res.Stats.SketchProbes != 0 || res.Stats.SketchSkips != 0 {
		t.Fatalf("sketch counters nonzero with DisableSketch: %+v", res.Stats)
	}
}

// TestShardedMmapMatchesHeap round-trips a fixture through the v2
// snapshot format and mmap, then checks the sharded engine (with the
// paging-hint callback wired) agrees with the heap-backed run.
func TestShardedMmapMatchesHeap(t *testing.T) {
	g := gen.PowerLaw(500, 2000, 2.5, 9)
	path := filepath.Join(t.TempDir(), "g.nsb2")
	if err := g.WriteBinaryFile(path, 0); err != nil {
		t.Fatalf("WriteBinaryFile: %v", err)
	}
	mg, err := graph.OpenMmap(path)
	if err != nil {
		t.Fatalf("OpenMmap: %v", err)
	}
	defer mg.Close()

	want := FilterRefineSky(g, Options{})
	for _, s := range []int{1, 2, 7, 64} {
		res := ShardedFilterRefineSky(mg.Graph, Options{NoParallelCutoff: true},
			ShardOptions{Shards: s, Workers: 2, Advise: mg.AdviseRange})
		if !EqualSkylines(res.Skyline, want.Skyline) {
			t.Errorf("shards=%d: mmap skyline %v, want %v", s, res.Skyline, want.Skyline)
		}
		if !EqualSkylines(res.Candidates, want.Candidates) {
			t.Errorf("shards=%d: mmap candidates differ", s)
		}
	}
}

// TestShardedIsomorphismInvariance relabels a fixture by a nontrivial
// permutation (degree-descending, the ConvertOptions.Relabel order) and
// checks the sharded skyline of the relabeled graph is exactly the
// image of the original skyline — the engine must depend on structure
// only, whichever fast path (degree-sorted pivots, prefix breaks) the
// labeling enables.
func TestShardedIsomorphismInvariance(t *testing.T) {
	g := gen.PowerLaw(400, 1600, 2.5, 21)
	n := g.N()

	// perm[old] = new id, ordered by descending degree (ties by old id,
	// keeping the permutation deterministic).
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.Degree(order[a]) > g.Degree(order[b])
	})
	perm := make([]int32, n)
	for newID, old := range order {
		perm[old] = int32(newID)
	}

	b := graph.NewBuilder(n)
	for u := int32(0); u < int32(n); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				b.AddEdge(perm[u], perm[v])
			}
		}
	}
	rg := b.Build()
	if !rg.DegreeSorted() {
		t.Fatalf("relabeled graph is not degree-sorted; permutation is broken")
	}

	want := FilterRefineSky(g, Options{})
	wantImage := make([]int32, 0, len(want.Skyline))
	for _, u := range want.Skyline {
		wantImage = append(wantImage, perm[u])
	}
	sort.Slice(wantImage, func(a, b int) bool { return wantImage[a] < wantImage[b] })

	for _, s := range []int{1, 7} {
		res := ShardedFilterRefineSky(rg, Options{NoParallelCutoff: true},
			ShardOptions{Shards: s, Workers: 2})
		if !EqualSkylines(res.Skyline, wantImage) {
			t.Errorf("shards=%d: relabeled skyline %v, want image %v", s, res.Skyline, wantImage)
		}
	}
}

// TestShardedStatsSumAcrossShards is the per-shard stats merge
// regression: Result.Stats must equal the fieldwise sum of
// Result.ShardStats, and the hub/sketch counters must actually be
// counted (not dropped in the merge, the bug this pins).
func TestShardedStatsSumAcrossShards(t *testing.T) {
	g := gen.PowerLaw(600, 3000, 2.5, 3)
	res := ShardedFilterRefineSky(g, Options{NoParallelCutoff: true},
		ShardOptions{Shards: 8, Workers: 2})
	if res.ShardStats == nil {
		t.Fatalf("ShardStats nil on a sharded run")
	}
	var sum Stats
	for _, st := range res.ShardStats {
		sum.add(st)
	}
	if sum != res.Stats {
		t.Fatalf("Stats %+v != sum of ShardStats %+v", res.Stats, sum)
	}
	if res.Stats.SketchProbes == 0 || res.Stats.SketchSkips == 0 {
		t.Fatalf("sketch counters not aggregated: %+v", res.Stats)
	}
	if res.Stats.InclusionTests == 0 {
		t.Fatalf("inclusion tests not aggregated: %+v", res.Stats)
	}
	if res.Stats.CandidateCount != len(res.Candidates) {
		t.Fatalf("CandidateCount %d != |Candidates| %d", res.Stats.CandidateCount, len(res.Candidates))
	}
}

// TestParallelFilterStatsCountHubHits is the companion regression for
// the shared counters: the sharded engine must count hub-bitmap
// dispatches per shard (inclTest threads the Stats pointer) and merge
// them into Result.Stats at every worker count.
func TestParallelFilterStatsCountHubHits(t *testing.T) {
	g := gen.PowerLaw(600, 3000, 2.5, 3)
	if g.Hub().Hubs() == 0 {
		t.Fatal("fixture has no hub bitmaps; hub counters would be vacuous")
	}
	for _, w := range []int{1, 4} {
		res := ShardedFilterRefineSky(g, Options{NoParallelCutoff: true}, ShardOptions{Workers: w})
		if res.Err != nil {
			t.Fatalf("workers=%d: %v", w, res.Err)
		}
		sum := 0
		for _, st := range res.ShardStats {
			sum += st.HubHits
		}
		if res.Stats.HubHits == 0 || res.Stats.HubHits != sum {
			t.Errorf("workers=%d: HubHits %d, sum over shards %d", w, res.Stats.HubHits, sum)
		}
	}
}

// TestShardedDeterministicWithOneWorker pins the determinism claim in
// the engine doc: Workers == 1 gives identical Stats (not just results)
// run over run, for any shard count.
func TestShardedDeterministicWithOneWorker(t *testing.T) {
	g := gen.PowerLaw(400, 1600, 2.5, 17)
	for _, s := range []int{1, 2, 7, 64} {
		a := ShardedFilterRefineSky(g, Options{NoParallelCutoff: true}, ShardOptions{Shards: s, Workers: 1})
		b := ShardedFilterRefineSky(g, Options{NoParallelCutoff: true}, ShardOptions{Shards: s, Workers: 1})
		if a.Stats != b.Stats {
			t.Errorf("shards=%d: stats differ across identical runs:\n%+v\n%+v", s, a.Stats, b.Stats)
		}
		if !EqualSkylines(a.Skyline, b.Skyline) || !EqualSkylines(a.Candidates, b.Candidates) {
			t.Errorf("shards=%d: results differ across identical runs", s)
		}
	}
}

// TestShardedCancellationSuperset cancels mid-run and checks the
// anytime contract: the truncated Skyline and Candidates are supersets
// of the true skyline, and Candidates == Skyline (the partial per-shard
// candidate lists must not leak out).
func TestShardedCancellationSuperset(t *testing.T) {
	g := gen.PowerLaw(3000, 12000, 2.5, 11)
	want := FilterRefineSky(g, Options{})
	inSky := make(map[int32]bool, len(want.Skyline))
	for _, u := range want.Skyline {
		inSky[u] = true
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first checkpoint tick truncates
	res := ShardedFilterRefineSkyCtx(ctx, g, Options{NoParallelCutoff: true},
		ShardOptions{Shards: 16, Workers: 4})
	if !res.Truncated {
		t.Fatalf("cancelled run not marked truncated")
	}
	if res.Err == nil {
		t.Fatalf("truncated run carries no cause")
	}
	if !EqualSkylines(res.Candidates, res.Skyline) {
		t.Fatalf("truncated Candidates != Skyline")
	}
	got := make(map[int32]bool, len(res.Skyline))
	for _, u := range res.Skyline {
		got[u] = true
	}
	for u := range inSky {
		if !got[u] {
			t.Fatalf("truncated skyline dropped true member %d", u)
		}
	}
}

// TestShardedCutoffFallsBackToSerial pins that tiny graphs take the
// serial path (no ShardStats) unless NoParallelCutoff forces sharding.
func TestShardedCutoffFallsBackToSerial(t *testing.T) {
	g := gen.PowerLaw(60, 150, 2.5, 7)
	res := ShardedFilterRefineSky(g, Options{}, ShardOptions{Shards: 4})
	if res.ShardStats != nil {
		t.Fatalf("small graph did not fall back to the serial engine")
	}
	forced := ShardedFilterRefineSky(g, Options{NoParallelCutoff: true}, ShardOptions{Shards: 4})
	if forced.ShardStats == nil {
		t.Fatalf("NoParallelCutoff did not force the sharded engine")
	}
	if !EqualSkylines(res.Skyline, forced.Skyline) {
		t.Fatalf("fallback and forced runs disagree")
	}
}
