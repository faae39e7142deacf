package core

import (
	"context"
	"runtime"
	"sync/atomic"

	"neisky/internal/graph"
	"neisky/internal/obs"
	"neisky/internal/runctl"
	"neisky/internal/sketch"
)

// Sharded filter/refine engine.
//
// ShardedFilterRefineSky recomputes Algorithm 3 over S contiguous,
// work-balanced vertex shards (graph.PartitionShards). It is the one
// parallel skyline engine; three structural differences from the
// serial FilterRefineSky:
//
//  1. The phases are FUSED and refine-first: each shard makes a single
//     pass over its vertices, running the min-degree-pivot dominator
//     scan directly while the vertex's adjacency rows are hot in cache.
//     This is sound without a prior filter pass because the pivot range
//     N(v*) ∪ {v*} provably contains EVERY dominator of u — including
//     the edge-adjacent ones Algorithm 2 looks for: if v ∈ N(u)
//     dominates u then v* ∈ N(u) ⊆ N[v], so v ∈ N[v*]. The
//     edge-constrained candidate classification (the filter phase's
//     output) then only needs to run for the small minority of vertices
//     that were proven dominated; survivors are in R ⊆ C for free. On
//     BENCH_3-style graphs where the filter prunes <10% of vertices,
//     this deletes more than half of all containment pre-checks.
//  2. Both the dominator scan and the candidate classification are
//     fronted by per-vertex register sketches (internal/sketch): a
//     32-byte thermometer-coded HLL summary of N(u) whose subset test
//     has no false negatives, so a sketch rejection discards a pair
//     without an exact adjacency merge and without touching the
//     dominator array. The sketches are a per-snapshot index, built
//     lazily and cached on the graph (graph.Sketches) exactly like the
//     hub bitmaps; hub-covered dominators skip the sketch probe (their
//     registers are saturated) and go straight to the exact bitmap.
//  3. On degree-relabeled snapshots (graph.DegreeSorted) adjacency
//     lists are non-increasing in degree, so the min-degree pivot is
//     the LAST neighbor (O(1) instead of an O(deg) scan) and every
//     "deg(w) ≥ deg(u)" filter becomes a prefix walk with early break.
//
// Concurrency argument. The scan writes o[u] ONLY from the shard that
// owns u — the serial filter's mutual equal-neighborhood cross-write
// (u < v marks o[v]) is unnecessary here because v's own pivot scan
// rediscovers the mutual inclusion from its side (u lies in v's pivot
// range, see point 1), so candidate and skyline membership stay
// deterministic. Cross-shard reads (the liveness skip o[w] == w) use
// atomic loads; a stale read is pessimistic only, and skipping a
// freshly-dominated w is sound because o[w] transitions exactly once,
// from w to a dominator, domination chains end at skyline vertices
// whose o entry never changes, and the chain top dominates u too, so it
// lies in the same pivot range (point 1) — none of which depends on any
// filter phase having completed elsewhere. With Workers == 1 the engine
// is fully deterministic for any shard count.
//
// Anytime contract: a truncated run leaves o[u] == u for every
// unscanned vertex, so Skyline = collect(o) remains a sound superset of
// R; Candidates is reset to that superset since partially-assembled
// per-shard candidate lists are not one.
//
// Options interplay: KeepIsolated, DisableHubIndex and NoParallelCutoff
// are honored. The Bloom machinery is never built (the sketches replace
// it: DisableBloom is implied), and the filter/refine ablation knobs
// (PendantFilter, FullTwoHopScan, NoTwoHopDedup, BloomWords) do not
// apply — the engine always runs the full filter predicate and the
// pivot refine strategy, which compute the same skyline.

// ShardOptions tune the sharded engine.
type ShardOptions struct {
	// Shards is the number of contiguous vertex shards S. Zero picks
	// 4 × Workers; the partitioner may return fewer on tiny graphs.
	Shards int

	// Workers is the worker-pool size; shards are the unit of work, so
	// effective parallelism is min(Workers, Shards). Zero picks
	// GOMAXPROCS.
	Workers int

	// DisableSketch skips the register-sketch pre-filter and runs every
	// containment test exactly (ablation).
	DisableSketch bool

	// Advise, when set, is called with a shard's vertex range as a
	// worker starts scanning it — the mmap snapshot path points it at
	// graph.(*Mapped).AdviseRange so the kernel pages the shard's
	// adjacency span in ahead of the scan. Must be safe for concurrent
	// calls.
	Advise func(lo, hi int32)
}

// fill resolves the zero defaults.
func (so ShardOptions) fill() ShardOptions {
	if so.Workers <= 0 {
		so.Workers = runtime.GOMAXPROCS(0)
	}
	if so.Shards <= 0 {
		so.Shards = 4 * so.Workers
	}
	return so
}

// parallelCutoff is the CSR work size (n + 2m array entries) below
// which the sharded engine runs the serial engine instead. On graphs
// this small the whole scan costs a few hundred microseconds — the same
// order as spawning the worker group and bouncing the shared shard
// cursor between cores — so sharding buys nothing. 2^16 entries
// ≈ 256 KiB of CSR keeps every Table-I small sim serial while
// livejournal/orkut-scale graphs still shard. BenchmarkParallelCutoff
// pins the tradeoff; Options.NoParallelCutoff is the ablation escape
// hatch.
const parallelCutoff = 1 << 16

// underParallelCutoff reports whether g is too small for the sharded
// path to pay for itself.
func underParallelCutoff(g *graph.Graph, opts Options) bool {
	return !opts.NoParallelCutoff && g.N()+2*g.M() < parallelCutoff
}

// ShardedFilterRefineSky computes the neighborhood skyline with the
// sharded fused engine described above. Workers run panic-isolated
// through both entry points: a recovered worker panic surfaces in
// Result.Err (a *runctl.PanicError) with Truncated set, and the partial
// skyline stays a sound superset.
func ShardedFilterRefineSky(g *graph.Graph, opts Options, so ShardOptions) *Result {
	return shardedSkyRun(nil, g, opts, so)
}

// ShardedFilterRefineSkyCtx is ShardedFilterRefineSky under a context,
// with the anytime superset contract on cancellation.
func ShardedFilterRefineSkyCtx(ctx context.Context, g *graph.Graph, opts Options, so ShardOptions) *Result {
	run := runctl.FromContext(ctx)
	defer run.Release()
	return shardedSkyRun(run, g, opts, so)
}

// runShards drives a worker pool over shard indices [0, nshards) via an
// atomic cursor; each shard is processed entirely by one worker. fn
// returns true to report truncation (the worker drains). Workers are
// panic-isolated through the group.
func runShards(run *runctl.Run, workers, nshards, checkEvery int, fn func(si int, cp *runctl.Checkpoint) bool) (truncated bool, err error) {
	if workers > nshards {
		workers = nshards
	}
	group := runctl.NewGroup(run)
	var next int64 = -1
	for wi := 0; wi < workers; wi++ {
		group.Go(func() {
			cp := run.Checkpoint(checkEvery)
			for {
				if cp.Tick() {
					return
				}
				si := int(atomic.AddInt64(&next, 1))
				if si >= nshards {
					return
				}
				if fn(si, &cp) {
					return
				}
			}
		})
	}
	err = group.Wait()
	return run.Stopped(), err
}

// shardedSkyRun is the run-threaded body of the sharded engine.
func shardedSkyRun(run *runctl.Run, g *graph.Graph, opts Options, so ShardOptions) *Result {
	if underParallelCutoff(g, opts) {
		return filterRefineSkyRun(run, g, opts)
	}
	so = so.fill()
	r := obs.Get()
	defer r.Start("core.shard").End()

	n := int32(g.N())
	o := make([]int32, n)
	for u := int32(0); u < n; u++ {
		o[u] = u
	}
	if !opts.KeepIsolated {
		markIsolated(g, o)
	}
	h := hubFor(g, opts)
	var sk *sketch.Sketches
	if !so.DisableSketch {
		sk = g.Sketches() // cached per-snapshot index, like the hub bitmaps
	}
	degSorted := g.DegreeSorted()
	shards := g.PartitionShards(so.Shards)
	r.Add("core.shard.shards", int64(len(shards)))

	// A live run even for background callers, so a worker panic cancels
	// its siblings and they drain at their next checkpoint instead of
	// running to completion.
	run = runctl.Ensure(run)

	load := func(v int32) int32 { return atomic.LoadInt32(&o[v]) }

	// degB caps each degree to a byte: min(deg, 255). The scan's degree
	// prunes compare against this 1-byte/vertex table — L2-resident even
	// at multi-million scale — instead of the 4-byte CSR offsets array,
	// whose random per-neighbor loads dominated the profile. Exact
	// degrees are reloaded only for the rare pair that survives the
	// sketch probe (or sits in the ≥255 band, where the byte prune is
	// inexact and rechecked).
	degB := make([]uint8, n)
	for u := int32(0); u < n; u++ {
		if d := g.Degree(u); d < 255 {
			degB[u] = uint8(d)
		} else {
			degB[u] = 255
		}
	}

	// Sketch probes only pay off below the saturation threshold: hubs
	// (degree ≥ theta) have the exact bitmap as their cheap path, and a
	// row of degree ≥ 255 has effectively saturated registers — probing
	// it would miss a cache line just to accept. Hub membership is
	// degree-monotone (degree ≥ theta), so one byte compare covers both
	// with no h.bits[w] pointer load.
	satB := uint8(255)
	if h != nil && h.Theta() < 255 {
		satB = uint8(h.Theta())
	}

	// exactDominate is the post-sketch half of the dominator check:
	// liveness skip, exact degree recheck (the byte-capped prune is
	// inexact in the ≥255 band), then the exact containment kernel —
	// hub bitmap, adaptive merge, or gallop via inclTest, which exploits
	// that both adjacency lists are sorted (refineIncluded's per-element
	// binary probes don't); no Bloom filters.
	exactDominate := func(st *Stats, u, w int32, du int) bool {
		if load(w) != w {
			return false
		}
		dw := g.Degree(w)
		if dw < du {
			return false
		}
		st.InclusionTests++
		if !inclTest(g, h, st, u, w) {
			return false
		}
		if dw == du {
			// Mutual inclusion: smaller ID dominates; for u < w the
			// record is w's own scan's job (own-shard writes only).
			if u > w {
				atomic.StoreInt32(&o[u], w)
				return true
			}
			return false
		}
		atomic.StoreInt32(&o[u], w)
		return true
	}

	// tryDominate is the scalar per-pair check — sketch probe (skipped
	// at and above the saturation threshold), then exactDominate — used
	// for the pivot and for the sketch-disabled walk. db is w's
	// byte-capped degree, already loaded by the caller, which has pruned
	// db < min(du, 255).
	tryDominate := func(st *Stats, u, w int32, du int, db uint8) bool {
		st.PairsExamined++
		if sk != nil && db < satB {
			st.SketchProbes++
			if !sk.IncludedClosed(u, w) {
				st.SketchSkips++
				return false
			}
		}
		return exactDominate(st, u, w, du)
	}

	// inCandidates is Algorithm 2's edge-constrained predicate, run only
	// for vertices already proven dominated: u ∈ C iff no neighbor v
	// with deg(v) ≥ deg(u) neighborhood-includes u (strictly, or
	// mutually with vid < uid). Static per-vertex — no o reads or
	// writes — so sharded candidate sets match the serial filter's
	// exactly.
	inCandidates := func(st *Stats, u int32, du int) bool {
		duB := uint8(255)
		if du < 255 {
			duB = uint8(du)
		}
		for _, v := range g.Neighbors(u) {
			db := degB[v]
			if db < duB {
				if degSorted {
					break // neighbors are degree-non-increasing
				}
				continue
			}
			if sk != nil && db < satB {
				st.SketchProbes++
				if !sk.IncludedClosed(u, v) {
					st.SketchSkips++
					continue
				}
			}
			dv := g.Degree(v)
			if dv < du {
				continue // byte-capped prune, inexact in the ≥255 band
			}
			st.InclusionTests++
			if !inclTest(g, h, st, u, v) {
				continue
			}
			if dv == du && u < v {
				continue // mutual with the tie going to u
			}
			return false
		}
		return true
	}

	// The fused per-shard scan. perStats and perCand are indexed by
	// shard — a shard is processed entirely by one worker, so both are
	// contention-free.
	perStats := make([]Stats, len(shards))
	perCand := make([][]int32, len(shards))
	trunc, err := runShards(run, so.Workers, len(shards), refineCheckEvery, func(si int, cp *runctl.Checkpoint) bool {
		sh := shards[si]
		if so.Advise != nil {
			so.Advise(sh.Lo, sh.Hi)
			if next := si + 1; next < len(shards) {
				// Hint the following shard too, so its pages stream in
				// while this one is scanned (double advising under
				// multiple workers is harmless).
				so.Advise(shards[next].Lo, shards[next].Hi)
			}
		}
		st := &perStats[si]
		// Most vertices of a skyline-heavy graph end up candidates:
		// reserve the whole range up front instead of growing through
		// repeated copies.
		cands := make([]int32, 0, sh.Hi-sh.Lo)
		var acc []int32 // mini-probe survivors, reused across vertices
		truncated := false
		for u := sh.Lo; u < sh.Hi; u++ {
			if cp.Tick() {
				truncated = true
				break
			}
			if load(u) != u {
				continue // isolated-vertex marking; o[u] has no other writer yet
			}
			du := g.Degree(u)
			if du == 0 {
				// KeepIsolated (or the edgeless-graph minimum): trivial
				// skyline member, counted as a candidate like the
				// serial engine's collect does.
				cands = append(cands, u)
				continue
			}
			duB := uint8(255)
			if du < 255 {
				duB = uint8(du)
			}
			// Dominator scan over the min-degree pivot's closed
			// neighborhood, which contains every dominator of u.
			nu := g.Neighbors(u)
			pivot := nu[len(nu)-1] // min degree when degree-sorted
			if !degSorted {
				pivot = nu[0]
				for _, v := range nu {
					if g.Degree(v) < g.Degree(pivot) {
						pivot = v
					}
				}
			}
			dominated, domW := false, int32(-1)
			if db := degB[pivot]; db >= duB {
				if tryDominate(st, u, pivot, du, db) {
					dominated, domW = true, pivot
				}
			}
			if !dominated && sk != nil {
				// Fused prune+probe walk over the pivot's closed
				// neighborhood: one pass does the byte-degree prune and
				// the 8-byte mini-code rejection — both against
				// L2-resident arrays — and only mini survivors (a few
				// percent) are staged for the full-row sketch probe and
				// exact kernel, in prefix order, so the recorded
				// dominator is the same one the scalar walk would find.
				mo := sk.OpenMini(u)
				pairs, probes := 0, 0
				acc = acc[:0]
				for _, w := range g.Neighbors(pivot) {
					if w == u {
						continue
					}
					if db := degB[w]; db < duB {
						if degSorted {
							break // pivot's neighbors are degree-non-increasing
						}
						continue
					}
					pairs++
					if mo&^sk.ClosedMini(w) != 0 {
						continue // mini rejection is sound on its own
					}
					probes++
					acc = append(acc, w)
				}
				st.PairsExamined += pairs
				st.SketchProbes += pairs
				st.SketchSkips += pairs - probes
				for _, w := range acc {
					if !sk.IncludedClosed(u, w) {
						st.SketchSkips++
						continue
					}
					if exactDominate(st, u, w, du) {
						dominated, domW = true, w
						break
					}
				}
			} else if !dominated {
				for _, w := range g.Neighbors(pivot) {
					if w == u {
						continue
					}
					db := degB[w]
					if db < duB {
						if degSorted {
							break // pivot's neighbors are degree-non-increasing
						}
						continue
					}
					if tryDominate(st, u, w, du, db) {
						dominated, domW = true, w
						break
					}
				}
			}
			switch {
			case !dominated:
				cands = append(cands, u)
			case domW == pivot || g.Has(u, domW):
				// The recorded dominator is itself a neighbor of u, and
				// tryDominate's tie-break (equal degree ⇒ domW < u) is
				// exactly Algorithm 2's edge constraint: u is pruned from
				// C without rescanning its neighborhood.
			case inCandidates(st, u, du):
				cands = append(cands, u)
			}
		}
		perCand[si] = cands
		st.CandidateCount = len(cands)
		return truncated
	})

	res := &Result{}
	for i := range perStats {
		res.Stats.add(perStats[i])
	}
	res.ShardStats = perStats
	total := 0
	for _, c := range perCand {
		total += len(c)
	}
	cands := make([]int32, 0, total)
	for _, c := range perCand {
		cands = append(cands, c...) // shards are contiguous ⇒ ascending IDs
	}
	res.Candidates = cands
	res.Dominator = o
	res.Skyline = collect(o)
	if trunc || err != nil {
		res.Truncated = true
		res.Err = run.Err()
		if err != nil {
			res.Err = err
		}
		res.Candidates = res.Skyline
	}
	publishPhaseStats(r, "core.shard", res.Stats)
	return res
}
