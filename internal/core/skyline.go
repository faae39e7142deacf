// Package core implements the paper's neighborhood-skyline algorithms:
//
//   - BaseSky        — Algorithm 1, the Brandes-style 2-hop counting baseline
//   - FilterPhase    — Algorithm 2, the edge-constrained candidate filter
//   - FilterRefineSky — Algorithm 3, the filter–refine framework with
//     single-hash Bloom filters
//   - Base2Hop       — materialize-all-2-hop-neighborhoods baseline (Exp-1)
//   - BaseCSet       — FilterPhase + BaseSky restricted to candidates (Exp-1)
//   - BruteForce     — O(n²·d) definitional oracle used by tests
//
// Definitions (paper §II): u neighborhood-includes v iff N(v) ⊆ N[u];
// v ≤ u (u dominates v) iff the inclusion is one-sided, or mutual with
// uid < vid. The skyline R is the set of vertices dominated by no one.
package core

import (
	"context"
	"sort"

	"neisky/internal/bloom"
	"neisky/internal/graph"
	"neisky/internal/obs"
	"neisky/internal/runctl"
)

// Checkpoint granularity of the serial engines: the filter and baseline
// scans poll the run once per filterCheckEvery vertices, the refine
// phase once per refineCheckEvery candidates (refine pairs are an order
// of magnitude more expensive than filter edges). See DESIGN.md §7.
const (
	filterCheckEvery = 256
	refineCheckEvery = 64
)

// Options tune the skyline algorithms. The zero value reproduces the
// paper's defaults.
type Options struct {
	// KeepIsolated reproduces the paper's algorithmic behaviour of leaving
	// degree-0 vertices in the skyline. The definition says they are
	// dominated by any non-isolated vertex; the default (false) follows
	// the definition (see DESIGN.md §3.3).
	KeepIsolated bool

	// DisableBloom turns off the Bloom-filter pre-checks in the refine
	// phase (ablation; the exact adjacency checks still run).
	DisableBloom bool

	// PendantFilter uses the literal reading of the published Algorithm 2,
	// which only prunes degree-1 vertices, instead of the full
	// edge-constrained domination filter (ablation; see DESIGN.md §3.2).
	PendantFilter bool

	// BloomWords overrides the per-vertex Bloom filter size in 32-bit
	// words. Zero selects bloom.WordsFor(dmax).
	BloomWords int

	// FullTwoHopScan makes the refine phase enumerate 2-hop dominator
	// candidates exactly as the published pseudo-code does — through
	// every neighbor's full adjacency list. The default uses the
	// min-degree pivot instead: a dominator of u must be adjacent to
	// every neighbor of u, so scanning N(v*) ∪ {v*} for u's
	// minimum-degree neighbor v* is complete and far cheaper (ablation).
	FullTwoHopScan bool

	// NoTwoHopDedup disables the visited-stamp that prevents the
	// full scan from re-examining the same 2-hop vertex reached through
	// multiple shared neighbors. Only meaningful with FullTwoHopScan.
	NoTwoHopDedup bool

	// DisableHubIndex turns off the hub-bitmap containment kernels
	// (graph.HubIndex) and restores the legacy merge / binary-search
	// path everywhere (ablation; see DESIGN.md).
	DisableHubIndex bool

	// NoParallelCutoff disables the small-graph serial fallback of the
	// sharded engine (ShardedFilterRefineSky), forcing the sharded path
	// even below parallelCutoff (ablation; the cutoff benchmark uses it
	// to measure the counterfactual).
	NoParallelCutoff bool
}

// hubFor returns the graph's hub-bitmap index, or nil when the options
// disable it (the legacy-path ablation).
func hubFor(g *graph.Graph, opts Options) *graph.HubIndex {
	if opts.DisableHubIndex {
		return nil
	}
	return g.Hub()
}

// inclTest dispatches Definition 1's N(u) ⊆ N[v] test through the hub
// kernels when enabled, else the legacy merge, counting hub-bitmap
// dispatches into st.
func inclTest(g *graph.Graph, h *graph.HubIndex, st *Stats, u, v int32) bool {
	if h != nil {
		if h.IsHub(v) {
			st.HubHits++
		}
		return h.SubsetOpenInClosed(u, v)
	}
	return g.SubsetOpenInClosed(u, v)
}

// Stats records work counters for the ablation benchmarks.
type Stats struct {
	PairsExamined   int // (u, candidate dominator) pairs evaluated
	InclusionTests  int // exact adjacency subset verifications started
	BloomProbes     int // per-element BFcheck probes issued
	BloomRejects    int // pairs discarded by the whole-filter subset test
	BloomBitRejects int // per-element rejections by BFcheck
	BloomFalsePos   int // BFcheck passed but NBRcheck failed
	HubHits         int // containment tests answered by a hub bitmap
	SketchProbes    int // register-sketch subset pre-checks issued
	SketchSkips     int // pairs discarded by the sketch pre-check
	CandidateCount  int // |C| after the filter phase (filter algorithms)
}

// add accumulates t's counters into s (per-worker stats merging).
func (s *Stats) add(t Stats) {
	s.PairsExamined += t.PairsExamined
	s.InclusionTests += t.InclusionTests
	s.BloomProbes += t.BloomProbes
	s.BloomRejects += t.BloomRejects
	s.BloomBitRejects += t.BloomBitRejects
	s.BloomFalsePos += t.BloomFalsePos
	s.HubHits += t.HubHits
	s.SketchProbes += t.SketchProbes
	s.SketchSkips += t.SketchSkips
	s.CandidateCount += t.CandidateCount
}

// sub returns the fieldwise difference s − t, used to split a combined
// filter+refine Stats back into per-phase observability counters.
func (s Stats) sub(t Stats) Stats {
	return Stats{
		PairsExamined:   s.PairsExamined - t.PairsExamined,
		InclusionTests:  s.InclusionTests - t.InclusionTests,
		BloomProbes:     s.BloomProbes - t.BloomProbes,
		BloomRejects:    s.BloomRejects - t.BloomRejects,
		BloomBitRejects: s.BloomBitRejects - t.BloomBitRejects,
		BloomFalsePos:   s.BloomFalsePos - t.BloomFalsePos,
		HubHits:         s.HubHits - t.HubHits,
		SketchProbes:    s.SketchProbes - t.SketchProbes,
		SketchSkips:     s.SketchSkips - t.SketchSkips,
		CandidateCount:  s.CandidateCount - t.CandidateCount,
	}
}

// Result is the output of a skyline computation.
type Result struct {
	// Skyline lists the vertices of R in increasing ID order. When
	// Truncated is set it is instead a sound SUPERSET of R: the scan
	// only ever removes vertices it has proven dominated, so the
	// not-yet-pruned set always contains the true skyline.
	Skyline []int32
	// Dominator is the paper's O array: Dominator[u] == u iff u ∈ R,
	// otherwise it names one vertex that dominates u.
	Dominator []int32
	// Candidates lists C (increasing IDs) for the filter-based
	// algorithms, nil for BaseSky/Base2Hop/BruteForce.
	Candidates []int32
	// Stats holds work counters.
	Stats Stats
	// ShardStats holds per-shard work counters for the sharded engine
	// (ShardedFilterRefineSky), in shard order; its fieldwise sum equals
	// Stats. Nil for every other algorithm and for sharded runs that
	// fell back to the serial engine below the parallel cutoff.
	ShardStats []Stats
	// Truncated marks a best-effort partial result: the run was
	// cancelled (context, deadline, work budget, or worker failure)
	// before the scan finished. Err carries the cause.
	Truncated bool
	// Err is the cancellation cause (context error, runctl.ErrBudget,
	// or a *runctl.PanicError from an isolated worker); nil for a
	// complete result.
	Err error
}

// markTruncated stamps the anytime markers onto a partial result.
func (r *Result) markTruncated(run *runctl.Run) {
	r.Truncated = true
	r.Err = run.Err()
}

// collect extracts the skyline from an O array.
func collect(o []int32) []int32 {
	var r []int32
	for u := int32(0); u < int32(len(o)); u++ {
		if o[u] == u {
			r = append(r, u)
		}
	}
	return r
}

// markIsolated applies the definitional handling of degree-0 vertices:
// they are dominated by any non-isolated vertex, or — if the whole graph
// is edgeless — all but the minimum-ID vertex are dominated by it.
func markIsolated(g *graph.Graph, o []int32) {
	n := int32(g.N())
	dominator := int32(-1)
	for u := int32(0); u < n; u++ {
		if g.Degree(u) > 0 {
			dominator = u
			break
		}
	}
	if dominator == -1 {
		// Edgeless graph: mutual domination everywhere, min ID survives.
		for u := int32(1); u < n; u++ {
			o[u] = 0
		}
		return
	}
	for u := int32(0); u < n; u++ {
		if g.Degree(u) == 0 {
			o[u] = dominator
		}
	}
}

// defaultBloomWords sizes the shared per-vertex Bloom filters. The
// whole-filter subset test costs one word-op per word per examined pair,
// so sizing by dmax (as a literal reading of the paper suggests) makes
// the test itself the bottleneck on skewed graphs. Sizing by the average
// degree keeps the test a handful of word-ops while staying selective
// for the low-degree vertices that make up almost all dominated pairs;
// high-degree false positives only cost an exact re-check.
func defaultBloomWords(g *graph.Graph) int {
	n := g.N()
	if n == 0 {
		return 1
	}
	avg := 2 * g.M() / n
	w := bloom.WordsFor(4 * avg)
	if w > 16 {
		w = 16
	}
	return w
}

// NeighborhoodIncluded reports Definition 1: N(v) ⊆ N[u].
func NeighborhoodIncluded(g *graph.Graph, v, u int32) bool {
	return g.SubsetOpenInClosed(v, u)
}

// Dominates reports Definition 2: v ≤ u, i.e. u dominates v.
func Dominates(g *graph.Graph, u, v int32) bool {
	if u == v {
		return false
	}
	vInU := g.SubsetOpenInClosed(v, u)
	if !vInU {
		return false
	}
	uInV := g.SubsetOpenInClosed(u, v)
	if !uInV {
		return true
	}
	return u < v
}

// BruteForce computes the skyline straight from Definition 3 by testing
// every ordered vertex pair. Quadratic; intended for tests and tiny
// graphs only.
func BruteForce(g *graph.Graph) *Result {
	n := int32(g.N())
	o := make([]int32, n)
	for u := int32(0); u < n; u++ {
		o[u] = u
	}
	for v := int32(0); v < n; v++ {
		for u := int32(0); u < n; u++ {
			if u != v && Dominates(g, u, v) {
				o[v] = u
				break
			}
		}
	}
	return &Result{Skyline: collect(o), Dominator: o}
}

// BaseSky is Algorithm 1: for each not-yet-dominated vertex u, count
// |N(u) ∩ N[w]| for every 2-hop-reachable w using a shared counter array;
// w dominates u exactly when the count reaches deg(u) (with the
// equal-degree mutual case broken by ID). O(m·dmax) time, O(m+n) space.
func BaseSky(g *graph.Graph, opts Options) *Result {
	return baseSkyRun(nil, g, opts)
}

// BaseSkyCtx is BaseSky under a context; on cancellation the returned
// Skyline is the not-yet-dominated superset, with Truncated/Err set.
func BaseSkyCtx(ctx context.Context, g *graph.Graph, opts Options) *Result {
	run := runctl.FromContext(ctx)
	defer run.Release()
	return baseSkyRun(run, g, opts)
}

func baseSkyRun(run *runctl.Run, g *graph.Graph, opts Options) *Result {
	n := int32(g.N())
	o := make([]int32, n)
	for u := int32(0); u < n; u++ {
		o[u] = u
	}
	if !opts.KeepIsolated {
		markIsolated(g, o)
	}
	res := &Result{}
	t := make([]int32, n)
	touched := make([]int32, 0, 256)

	cp := run.Checkpoint(filterCheckEvery)
	for u := int32(0); u < n; u++ {
		if cp.Tick() {
			res.markTruncated(run)
			break
		}
		if o[u] != u || g.Degree(u) == 0 {
			continue
		}
		du := int32(g.Degree(u))
	scan:
		for _, v := range g.Neighbors(u) {
			// w ranges over N[v] \ {u} = N(v) ∪ {v} minus u.
			for k := -1; k < g.Degree(v); k++ {
				var w int32
				if k < 0 {
					w = v
				} else {
					w = g.Neighbors(v)[k]
				}
				if w == u {
					continue
				}
				if t[w] == 0 {
					touched = append(touched, w)
				}
				t[w]++
				if t[w] == du {
					res.Stats.PairsExamined++
					if int32(g.Degree(w)) == du {
						// Mutual inclusion: smaller ID dominates.
						if u > w {
							if o[u] == u {
								o[u] = w
							}
						} else if o[w] == w {
							o[w] = u
						}
					} else if o[u] == u {
						o[u] = w
						break scan
					}
				}
			}
		}
		for _, w := range touched {
			t[w] = 0
		}
		touched = touched[:0]
	}
	res.Dominator = o
	res.Skyline = collect(o)
	return res
}

// FilterPhase is Algorithm 2: it computes the neighborhood candidate set
// C under the edge-constrained domination order (Definition 5), i.e. it
// removes every vertex u that has a neighbor v with N[u] ⊆ N[v] (strictly,
// or mutually with vid < uid). Lemma 1 guarantees R ⊆ C.
//
// The published pseudo-code degenerates to pruning only degree-1 vertices
// (see DESIGN.md §3.2); pass Options.PendantFilter for that variant. The
// default performs the full per-edge subset test with an early-exit merge
// over sorted adjacency lists.
func FilterPhase(g *graph.Graph, opts Options) (candidates []int32, o []int32, stats Stats) {
	candidates, o, stats, _ = filterPhaseRun(nil, g, opts)
	return candidates, o, stats
}

// FilterPhaseCtx is FilterPhase under a context: on cancellation it
// returns the candidates proven so far — still a superset of the true
// skyline, since the scan only removes vertices it has verified
// dominated — with Truncated/Err set.
func FilterPhaseCtx(ctx context.Context, g *graph.Graph, opts Options) *Result {
	run := runctl.FromContext(ctx)
	defer run.Release()
	c, o, stats, trunc := filterPhaseRun(run, g, opts)
	res := &Result{Candidates: c, Dominator: o, Skyline: c, Stats: stats}
	if trunc {
		res.markTruncated(run)
	}
	return res
}

// filterPhaseRun is the run-threaded body of Algorithm 2, polling the
// run once per filterCheckEvery vertices.
func filterPhaseRun(run *runctl.Run, g *graph.Graph, opts Options) (candidates []int32, o []int32, stats Stats, truncated bool) {
	r := obs.Get()
	defer r.Start("core.filter").End()
	n := int32(g.N())
	o = make([]int32, n)
	for u := int32(0); u < n; u++ {
		o[u] = u
	}
	if !opts.KeepIsolated {
		markIsolated(g, o)
	}
	h := hubFor(g, opts)
	cp := run.Checkpoint(filterCheckEvery)
	for u := int32(0); u < n; u++ {
		if cp.Tick() {
			truncated = true
			break
		}
		if o[u] != u {
			continue
		}
		du := g.Degree(u)
		if du == 0 {
			continue
		}
		for _, v := range g.Neighbors(u) {
			dv := g.Degree(v)
			if dv < du {
				continue // N[u] ⊆ N[v] needs deg(v) ≥ deg(u)
			}
			if opts.PendantFilter {
				// Literal Algorithm 2: T(v) is incremented once per
				// neighbor, so T(v) = deg(u) only fires when deg(u)=1.
				if du != 1 {
					continue
				}
				// N[u] = {u, v} ⊆ N[v] always holds here.
			} else {
				stats.InclusionTests++
				if !inclTest(g, h, &stats, u, v) {
					continue // adjacent, so N[u] ⊆ N[v] ⇔ N(u) ⊆ N[v]
				}
			}
			// Edge-constrained inclusion holds: u ⊑ v.
			if dv == du {
				// N[u] = N[v]: smaller ID dominates.
				if u > v {
					if o[u] == u {
						o[u] = v
					}
				} else if o[v] == v {
					o[v] = u
				}
			} else if o[u] == u {
				o[u] = v
				break
			}
		}
	}
	candidates = collect(o)
	stats.CandidateCount = len(candidates)
	publishPhaseStats(r, "core.filter", stats)
	return candidates, o, stats, truncated
}

// FilterCandidates runs only the filter phase and returns C.
func FilterCandidates(g *graph.Graph, opts Options) []int32 {
	c, _, _ := FilterPhase(g, opts)
	return c
}

// buildFilters materializes the per-vertex Bloom filters for vs, all
// carved from one arena allocation so the refine loop is allocation-free
// after setup. Vertices covered by the hub index get no filter: their
// containment checks run against the exact bitmap, and (θ being
// degree-monotone) a hub's own filter could only ever be consulted
// against a lower-degree dominator, which the degree prune removes
// first. Returns nil when Bloom pre-checks are disabled.
func buildFilters(g *graph.Graph, h *graph.HubIndex, opts Options, vs []int32) []bloom.Filter {
	if opts.DisableBloom {
		return nil
	}
	words := opts.BloomWords
	if words <= 0 {
		words = defaultBloomWords(g)
	}
	filters := make([]bloom.Filter, g.N())
	backing := make([]uint32, words*len(vs))
	for i, u := range vs {
		if h != nil && h.IsHub(u) {
			continue
		}
		f := bloom.Wrap(backing[i*words : (i+1)*words])
		for _, v := range g.Neighbors(u) {
			f.Add(v)
		}
		filters[u] = f
	}
	return filters
}

// refineIncluded verifies N(u) ⊆ N[w] for one refine-phase pair. When w
// is a hub the check is one exact bitmap probe per element of N(u); the
// Bloom machinery is bypassed entirely. Otherwise it is the paper's
// pipeline: whole-filter subset pre-check (only sound for non-adjacent
// pairs — for adjacent ones the element w ∈ N(u) has no counterpart bit
// in BF(w)), then element-wise BFcheck/NBRcheck. covered is a neighbor
// of u already known to lie in N(w), or -1.
func refineIncluded(g *graph.Graph, h *graph.HubIndex, filters []bloom.Filter, st *Stats, u, w, covered int32) bool {
	if h != nil {
		if bw := h.Bits(w); bw != nil {
			st.HubHits++
			st.InclusionTests++
			for _, x := range g.Neighbors(u) {
				if x == covered || x == w {
					continue
				}
				if !bw.Test(x) {
					return false
				}
			}
			return true
		}
	}
	useBloom := filters != nil && !filters[w].IsZero()
	if useBloom && !filters[u].IsZero() && !g.Has(u, w) {
		if !filters[u].SubsetOf(&filters[w]) {
			st.BloomRejects++
			return false
		}
	}
	st.InclusionTests++
	probes := 0 // folded into st once, off the probe loop's store path
	for _, x := range g.Neighbors(u) {
		if x == covered || x == w {
			continue
		}
		if useBloom {
			probes++
			if !filters[w].MayContain(x) {
				st.BloomBitRejects++
				st.BloomProbes += probes
				return false
			}
		}
		if !g.Has(w, x) {
			if useBloom {
				st.BloomFalsePos++
			}
			st.BloomProbes += probes
			return false
		}
	}
	st.BloomProbes += probes
	return true
}

// FilterRefineSky is Algorithm 3: FilterPhase produces candidates C and
// the O array; the refine phase checks every remaining candidate against
// its 2-hop neighbors using hub bitmaps (exact, word-packed) or
// per-candidate Bloom filters to discard non-dominators cheaply, falling
// back to exact adjacency tests (NBRcheck) to kill false positives.
func FilterRefineSky(g *graph.Graph, opts Options) *Result {
	return filterRefineSkyRun(nil, g, opts)
}

// FilterRefineSkyCtx is FilterRefineSky under a context. The anytime
// contract: on cancellation the returned Skyline is the set of vertices
// not yet proven dominated — a sound superset of the true skyline
// (during the filter phase it is exactly the partial candidate set) —
// with Truncated/Err set.
func FilterRefineSkyCtx(ctx context.Context, g *graph.Graph, opts Options) *Result {
	run := runctl.FromContext(ctx)
	defer run.Release()
	return filterRefineSkyRun(run, g, opts)
}

// filterRefineSkyRun is the run-threaded body of Algorithm 3.
func filterRefineSkyRun(run *runctl.Run, g *graph.Graph, opts Options) *Result {
	candidates, o, fstats, ftrunc := filterPhaseRun(run, g, opts)
	res := &Result{Candidates: candidates, Stats: fstats}
	if ftrunc {
		res.Dominator = o
		res.Skyline = candidates
		res.markTruncated(run)
		return res
	}
	r := obs.Get()
	refineSpan := r.Start("core.refine")
	h := hubFor(g, opts)
	filters := buildFilters(g, h, opts, candidates)

	// tryDominate runs the per-pair check of Algorithm 3's inner loop:
	// degree and liveness pruning, then the hub-bitmap or
	// Bloom/NBRcheck verification of N(u) ⊆ N[w] (refineIncluded).
	// covered is a neighbor of u already known to lie in N(w) (the
	// connecting vertex), or -1. It returns true when u got dominated.
	tryDominate := func(u, w, covered int32, du int) bool {
		dw := g.Degree(w)
		if dw < du || o[w] != w {
			return false
		}
		res.Stats.PairsExamined++
		if !refineIncluded(g, h, filters, &res.Stats, u, w, covered) {
			return false
		}
		// w neighborhood-includes u.
		if dw == du {
			// Degree equality plus N(u) ⊆ N[w] implies mutual
			// inclusion (see DESIGN.md); the smaller ID dominates. For
			// u < w nothing is recorded here — w discovers its own
			// domination when it scans.
			if u > w {
				o[u] = w
				return true
			}
			return false
		}
		o[u] = w
		return true
	}

	// visited stamps deduplicate 2-hop vertices reached through several
	// shared neighbors within one candidate's full scan.
	var visited []int32
	if opts.FullTwoHopScan && !opts.NoTwoHopDedup {
		visited = make([]int32, g.N())
		for i := range visited {
			visited[i] = -1
		}
	}

	cp := run.Checkpoint(refineCheckEvery)
	for _, u := range candidates {
		if cp.Tick() {
			res.markTruncated(run)
			break
		}
		if o[u] != u {
			continue // dominated earlier in this refine pass
		}
		du := g.Degree(u)
		if du == 0 {
			continue
		}
		if opts.FullTwoHopScan {
			// Paper-literal enumeration: w ranges over N(v) for every
			// v ∈ N(u).
		refine:
			for _, v := range g.Neighbors(u) {
				for _, w := range g.Neighbors(v) {
					if w == u {
						continue
					}
					if visited != nil {
						if visited[w] == u {
							continue
						}
						visited[w] = u
					}
					if tryDominate(u, w, v, du) {
						break refine
					}
				}
			}
			continue
		}
		// Min-degree pivot: every dominator of u is adjacent to all of
		// u's neighbors (or is one of them), so it lies in
		// N(v*) ∪ {v*} for u's minimum-degree neighbor v*.
		pivot := g.Neighbors(u)[0]
		for _, v := range g.Neighbors(u) {
			if g.Degree(v) < g.Degree(pivot) {
				pivot = v
			}
		}
		if tryDominate(u, pivot, -1, du) {
			continue
		}
		for _, w := range g.Neighbors(pivot) {
			if w == u {
				continue
			}
			if tryDominate(u, w, pivot, du) {
				break
			}
		}
	}
	res.Dominator = o
	res.Skyline = collect(o)
	refineSpan.End()
	publishPhaseStats(r, "core.refine", res.Stats.sub(fstats))
	return res
}

// Base2Hop materializes every vertex's full 2-hop neighbor list up front
// and then applies the same pruning and Bloom-filter machinery as the
// refine phase over all vertices (no filter phase). This is the paper's
// memory-hungry Exp-1/Exp-2 baseline: it keeps O(Σ|N2(u)|) lists plus a
// Bloom filter per vertex alive simultaneously.
func Base2Hop(g *graph.Graph, opts Options) *Result {
	return base2HopRun(nil, g, opts)
}

// Base2HopCtx is Base2Hop under a context. Cancellation during the
// 2-hop materialization aborts before any domination is recorded, so
// the partial Skyline remains a sound superset.
func Base2HopCtx(ctx context.Context, g *graph.Graph, opts Options) *Result {
	run := runctl.FromContext(ctx)
	defer run.Release()
	return base2HopRun(run, g, opts)
}

func base2HopRun(run *runctl.Run, g *graph.Graph, opts Options) *Result {
	n := int32(g.N())
	o := make([]int32, n)
	for u := int32(0); u < n; u++ {
		o[u] = u
	}
	if !opts.KeepIsolated {
		markIsolated(g, o)
	}
	res := &Result{}
	cp := run.Checkpoint(filterCheckEvery)

	// Materialize N2(u) for all u (the point of this baseline).
	two := make([][]int32, n)
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	for u := int32(0); u < n; u++ {
		if cp.Tick() {
			res.markTruncated(run)
			break
		}
		var lst []int32
		for _, v := range g.Neighbors(u) {
			for k := -1; k < g.Degree(v); k++ {
				var w int32
				if k < 0 {
					w = v
				} else {
					w = g.Neighbors(v)[k]
				}
				if w == u || seen[w] == u {
					continue
				}
				seen[w] = u
				lst = append(lst, w)
			}
		}
		two[u] = lst
	}
	if res.Truncated {
		res.Dominator = o
		res.Skyline = collect(o)
		return res
	}

	all := make([]int32, n)
	for u := int32(0); u < n; u++ {
		all[u] = u
	}
	h := hubFor(g, opts)
	filters := buildFilters(g, h, opts, all)

	for u := int32(0); u < n; u++ {
		if cp.Tick() {
			res.markTruncated(run)
			break
		}
		if o[u] != u || g.Degree(u) == 0 {
			continue
		}
		du := g.Degree(u)
		for _, w := range two[u] {
			dw := g.Degree(w)
			if dw < du {
				continue
			}
			res.Stats.PairsExamined++
			if !refineIncluded(g, h, filters, &res.Stats, u, w, -1) {
				continue
			}
			if dw == du {
				// Mutual: smaller ID dominates.
				if u > w {
					if o[u] == u {
						o[u] = w
					}
				} else if o[w] == w {
					o[w] = u
				}
				continue
			}
			o[u] = w
			break
		}
	}
	res.Dominator = o
	res.Skyline = collect(o)
	return res
}

// BaseCSet runs FilterPhase to obtain C, then the BaseSky counting scan
// restricted to candidates (no Bloom filters). Time
// O(dmax · Σ_{u∈C} deg(u)).
func BaseCSet(g *graph.Graph, opts Options) *Result {
	return baseCSetRun(nil, g, opts)
}

// BaseCSetCtx is BaseCSet under a context, with the same anytime
// contract as FilterRefineSkyCtx.
func BaseCSetCtx(ctx context.Context, g *graph.Graph, opts Options) *Result {
	run := runctl.FromContext(ctx)
	defer run.Release()
	return baseCSetRun(run, g, opts)
}

func baseCSetRun(run *runctl.Run, g *graph.Graph, opts Options) *Result {
	candidates, o, fstats, ftrunc := filterPhaseRun(run, g, opts)
	res := &Result{Candidates: candidates, Stats: fstats}
	if ftrunc {
		res.Dominator = o
		res.Skyline = candidates
		res.markTruncated(run)
		return res
	}
	n := int32(g.N())
	t := make([]int32, n)
	touched := make([]int32, 0, 256)

	cp := run.Checkpoint(filterCheckEvery)
	for _, u := range candidates {
		if cp.Tick() {
			res.markTruncated(run)
			break
		}
		if o[u] != u || g.Degree(u) == 0 {
			continue
		}
		du := int32(g.Degree(u))
	scan:
		for _, v := range g.Neighbors(u) {
			for k := -1; k < g.Degree(v); k++ {
				var w int32
				if k < 0 {
					w = v
				} else {
					w = g.Neighbors(v)[k]
				}
				if w == u {
					continue
				}
				if t[w] == 0 {
					touched = append(touched, w)
				}
				t[w]++
				if t[w] == du && o[w] == w {
					res.Stats.PairsExamined++
					if int32(g.Degree(w)) == du {
						if u > w {
							if o[u] == u {
								o[u] = w
							}
						} else if o[w] == w {
							o[w] = u
						}
					} else if o[u] == u {
						o[u] = w
						break scan
					}
				}
			}
		}
		for _, w := range touched {
			t[w] = 0
		}
		touched = touched[:0]
	}
	res.Dominator = o
	res.Skyline = collect(o)
	return res
}

// SkylineSet returns the skyline as a membership bitmap, handy for the
// application packages.
func SkylineSet(res *Result, n int) []bool {
	in := make([]bool, n)
	for _, u := range res.Skyline {
		in[u] = true
	}
	return in
}

// EqualSkylines reports whether two skyline vertex lists are identical.
func EqualSkylines(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DominatedBy inverts a Dominator array: result[u] lists the vertices v
// whose recorded dominator is u (v's full dominator set may be larger).
// Used by NeiSkyTopkMCC's candidate-release rule.
func DominatedBy(o []int32) map[int32][]int32 {
	m := make(map[int32][]int32)
	for v := int32(0); v < int32(len(o)); v++ {
		if o[v] != v {
			m[o[v]] = append(m[o[v]], v)
		}
	}
	for _, lst := range m {
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
	}
	return m
}
