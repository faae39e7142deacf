package main

import (
	"encoding/json"
	"fmt"
	"slices"

	"neisky/internal/clique"
	"neisky/internal/core"
	"neisky/internal/dynsky"
	"neisky/internal/graph"
	"neisky/internal/skytree"
)

// state is the reference answer for one graph state (the base graph,
// or the graph after one scripted swap), computed in the benchmark's
// own process, never by the daemon under test.
type state struct {
	epoch      uint64 // the daemon epoch that serves this state
	n, m       int
	applied    int // ops of the swap that produced this state that changed the graph
	skySize    int
	skyPrefix  []int32
	numLayers  int
	layerSizes []int
	top        [][]int32 // first layersK layers, clipped to prefixLen
}

// reference holds everything the checks compare against. Engine- and
// index-reads answer from the base state; durable-swaps has one state
// per scripted swap.
type reference struct {
	g       *graph.Graph // base graph
	base    state
	inSky   []bool // base skyline membership (dominators check)
	clique  int    // maximum clique size (base graph)
	tree    *skytree.Tree
	subBody [][]byte            // subset pool request bodies
	subSky  [][]int32           // reference subset skylines
	swaps   []state             // durable-swaps: state after swap c
	swapBy  [][]byte            // durable-swaps: request body of swap c
	explain []map[int32][]int32 // durable-swaps: expected chains of cycle c's explain requests, by vertex
}

func clip(v []int32, k int) []int32 {
	if len(v) > k {
		v = v[:k]
	}
	return append([]int32{}, v...)
}

// stateOf computes the reference state of g with the paper's
// FilterRefineSky and, when withTree, the layered index built from
// scratch.
func stateOf(g *graph.Graph, withTree bool) (state, *core.Result, *skytree.Tree) {
	res := core.FilterRefineSky(g, core.Options{})
	st := state{n: g.N(), m: g.M(), skySize: len(res.Skyline), skyPrefix: clip(res.Skyline, prefixLen)}
	var t *skytree.Tree
	if withTree {
		t = skytree.Build(g, skytree.BuildOptions{})
		st.numLayers = t.NumLayers()
		st.layerSizes = t.LayerSizes()
		k := min(layersK, t.NumLayers())
		for _, l := range t.TopK(k) {
			st.top = append(st.top, clip(l, prefixLen))
		}
	}
	return st, res, t
}

// buildReference prepares the checks for a run of w on seed. At the
// 20k rung the FilterRefineSky reference is itself cross-checked
// against BaseSky.
func buildReference(w *workload, sc *script, g *graph.Graph, totalCycles int) (*reference, error) {
	ref := &reference{g: g}
	st, res, t := stateOf(g, w.tree)
	st.epoch = 1
	ref.base, ref.tree = st, t
	ref.inSky = core.SkylineSet(res, g.N())
	if g.N() <= 20_000 {
		if b := core.BaseSky(g, core.Options{}); !core.EqualSkylines(b.Skyline, res.Skyline) {
			return nil, fmt.Errorf("reference: FilterRefineSky (%d) disagrees with BaseSky (%d)", len(res.Skyline), len(b.Skyline))
		}
	}
	if slices.Contains(w.cycle, clsClique) {
		ref.clique = len(clique.NeiSkyMC(g).Clique)
	}
	if slices.Contains(w.cycle, clsSubset) {
		for p := 0; p < subsetPool; p++ {
			ids := subsetIDs(sc.seed, g, p)
			ref.subBody = append(ref.subBody, subsetBody(ids))
			ref.subSky = append(ref.subSky, skytree.SubsetSkyline(g, t, ids).Skyline)
		}
	}
	if slices.Contains(w.cycle, clsSwap) {
		model := newEdgeModel(g)
		for c := 0; c < totalCycles; c++ {
			ops := swapOps(sc.seed, g, c)
			applied := model.apply(ops)
			cg := model.graph()
			st, _, ct := stateOf(cg, true)
			st.epoch, st.applied = uint64(c+2), applied
			ref.swaps = append(ref.swaps, st)
			ref.swapBy = append(ref.swapBy, swapBody(ops))
			chains := map[int32][]int32{}
			for p, cls := range w.cycle {
				if cls == clsExplain {
					v := sc.at(0, c*len(w.cycle)+p).verts[0]
					chains[v] = ct.Explain(v)
				}
			}
			ref.explain = append(ref.explain, chains)
		}
	}
	return ref, nil
}

// edgeModel is the benchmark's own edge set, the ground truth for each
// swap's m and applied count.
type edgeModel struct {
	n     int
	edges map[[2]int32]bool
}

func newEdgeModel(g *graph.Graph) *edgeModel {
	em := &edgeModel{n: g.N(), edges: make(map[[2]int32]bool, g.M())}
	g.Edges(func(u, v int32) { em.edges[key(u, v)] = true })
	return em
}

func key(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

func (em *edgeModel) apply(ops []dynsky.Op) int {
	applied := 0
	for _, op := range ops {
		k := key(op.U, op.V)
		if op.Add != em.edges[k] {
			applied++
			if op.Add {
				em.edges[k] = true
			} else {
				delete(em.edges, k)
			}
		}
	}
	return applied
}

func (em *edgeModel) graph() *graph.Graph {
	b := graph.NewBuilder(em.n)
	for e := range em.edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Response shapes: only the fields the checks read.
type metaJSON struct {
	Epoch     uint64 `json:"epoch"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	Truncated bool   `json:"truncated"`
	Cause     string `json:"cause"`
}

func (m metaJSON) check(want state) error {
	if m.Truncated {
		return fmt.Errorf("truncated answer (cause %q)", m.Cause)
	}
	if m.Epoch != want.epoch || m.N != want.n || m.M != want.m {
		return fmt.Errorf("epoch/n/m = %d/%d/%d, want %d/%d/%d", m.Epoch, m.N, m.M, want.epoch, want.n, want.m)
	}
	return nil
}

func decode(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("bad JSON: %v", err)
	}
	return nil
}

// checkSkyline: size and the 64-id prefix match FilterRefineSky.
func checkSkyline(body []byte, want state) error {
	var r struct {
		metaJSON
		SkylineSize int     `json:"skyline_size"`
		Skyline     []int32 `json:"skyline"`
	}
	if err := decode(body, &r); err != nil {
		return err
	}
	if err := r.check(want); err != nil {
		return err
	}
	if r.SkylineSize != want.skySize || !slices.Equal(r.Skyline, want.skyPrefix) {
		return fmt.Errorf("skyline size %d prefix %v, want %d %v", r.SkylineSize, head(r.Skyline), want.skySize, head(want.skyPrefix))
	}
	return nil
}

func head(v []int32) []int32 { return v[:min(len(v), 4)] }

// checkDominators: each entry's dominator is the vertex itself exactly
// when the vertex is in the reference skyline, and otherwise really
// dominates it.
func checkDominators(body []byte, ref *reference, verts []int32) error {
	var r struct {
		metaJSON
		SkylineSize int `json:"skyline_size"`
		Dominators  []struct {
			V         int32 `json:"v"`
			Dominator int32 `json:"dominator"`
			InSkyline bool  `json:"in_skyline"`
		} `json:"dominators"`
	}
	if err := decode(body, &r); err != nil {
		return err
	}
	if err := r.check(ref.base); err != nil {
		return err
	}
	if r.SkylineSize != ref.base.skySize || len(r.Dominators) != len(verts) {
		return fmt.Errorf("skyline size %d with %d entries, want %d with %d", r.SkylineSize, len(r.Dominators), ref.base.skySize, len(verts))
	}
	for i, e := range r.Dominators {
		v, d := verts[i], e.Dominator
		if e.V != v || e.InSkyline != (d == v) {
			return fmt.Errorf("entry %d = %+v for vertex %d", i, e, v)
		}
		if ref.inSky[v] != (d == v) {
			return fmt.Errorf("vertex %d: dominator %d, reference skyline membership %v", v, d, ref.inSky[v])
		}
		if d != v && (d < 0 || int(d) >= ref.g.N() || !core.Dominates(ref.g, d, v)) {
			return fmt.Errorf("vertex %d: %d does not dominate it", v, d)
		}
	}
	return nil
}

// checkClique: a genuine clique of the reference maximum size.
func checkClique(body []byte, ref *reference) error {
	var r struct {
		metaJSON
		Size   int     `json:"size"`
		Clique []int32 `json:"clique"`
	}
	if err := decode(body, &r); err != nil {
		return err
	}
	if err := r.check(ref.base); err != nil {
		return err
	}
	if r.Size != ref.clique || len(r.Clique) != ref.clique || !clique.IsClique(ref.g, r.Clique) {
		return fmt.Errorf("clique of size %d (%d listed), want a clique of size %d", r.Size, len(r.Clique), ref.clique)
	}
	return nil
}

// checkSubset: the answer equals skytree.SubsetSkyline on the subset.
func checkSubset(body []byte, ref *reference, pool int) error {
	var r struct {
		metaJSON
		SkylineSize int     `json:"skyline_size"`
		Skyline     []int32 `json:"skyline"`
	}
	if err := decode(body, &r); err != nil {
		return err
	}
	if err := r.check(ref.base); err != nil {
		return err
	}
	if want := ref.subSky[pool]; r.SkylineSize != len(want) || !slices.Equal(r.Skyline, want) {
		return fmt.Errorf("subset %d: skyline %v (size %d), want %v (size %d)", pool, head(r.Skyline), r.SkylineSize, head(want), len(want))
	}
	return nil
}

// checkExplain: the chain starts at v, ascends exactly one layer per
// hop, ends at layer 0, and equals the reference index's chain.
func checkExplain(body []byte, want state, v int32, chain []int32) error {
	var r struct {
		metaJSON
		V     int32 `json:"v"`
		Layer int32 `json:"layer"`
		Chain []struct {
			V     int32 `json:"v"`
			Layer int32 `json:"layer"`
		} `json:"chain"`
	}
	if err := decode(body, &r); err != nil {
		return err
	}
	if err := r.check(want); err != nil {
		return err
	}
	if r.V != v || len(r.Chain) == 0 || r.Chain[0].V != v || r.Chain[0].Layer != r.Layer {
		return fmt.Errorf("explain %d: answer for %d with chain %v", v, r.V, r.Chain)
	}
	for i, s := range r.Chain {
		if s.Layer != r.Layer-int32(i) {
			return fmt.Errorf("explain %d: hop %d is at layer %d, want %d", v, i, s.Layer, r.Layer-int32(i))
		}
	}
	got := make([]int32, len(r.Chain))
	for i, s := range r.Chain {
		got[i] = s.V
	}
	if r.Chain[len(r.Chain)-1].Layer != 0 || !slices.Equal(got, chain) {
		return fmt.Errorf("explain %d: chain %v, want %v", v, got, chain)
	}
	return nil
}

// checkLayers: layer count, every layer's size and the clipped first
// layers match the reference index.
func checkLayers(body []byte, want state) error {
	var r struct {
		metaJSON
		NumLayers  int       `json:"num_layers"`
		LayerSizes []int     `json:"layer_sizes"`
		Layers     [][]int32 `json:"layers"`
	}
	if err := decode(body, &r); err != nil {
		return err
	}
	if err := r.check(want); err != nil {
		return err
	}
	if r.NumLayers != want.numLayers || !slices.Equal(r.LayerSizes, want.layerSizes) ||
		!slices.EqualFunc(r.Layers, want.top, slices.Equal[[]int32]) {
		return fmt.Errorf("layers %d %v, want %d %v", r.NumLayers, r.LayerSizes, want.numLayers, want.layerSizes)
	}
	return nil
}

// checkStats: the served snapshot's identity.
func checkStats(body []byte, want state) error {
	var r struct {
		Epoch uint64 `json:"epoch"`
		N     int    `json:"n"`
		M     int    `json:"m"`
	}
	if err := decode(body, &r); err != nil {
		return err
	}
	if r.Epoch != want.epoch || r.N != want.n || r.M != want.m {
		return fmt.Errorf("stats epoch/n/m = %d/%d/%d, want %d/%d/%d", r.Epoch, r.N, r.M, want.epoch, want.n, want.m)
	}
	return nil
}

// checkSwap: the new epoch is the next one, and m, the applied count
// and the skyline size follow the edge-set model.
func checkSwap(body []byte, want state) error {
	var r struct {
		metaJSON
		Applied     int `json:"applied"`
		SkylineSize int `json:"skyline_size"`
	}
	if err := decode(body, &r); err != nil {
		return err
	}
	if err := r.check(want); err != nil {
		return err
	}
	if r.Applied != want.applied || r.SkylineSize != want.skySize {
		return fmt.Errorf("swap applied %d skyline %d, want %d %d", r.Applied, r.SkylineSize, want.applied, want.skySize)
	}
	return nil
}
