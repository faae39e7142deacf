package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"neisky/internal/dynsky"
	"neisky/internal/gen"
	"neisky/internal/graph"
	"neisky/internal/rng"
)

// Endpoint classes. Latency is only ever summarized per class: a
// percentile over a mixed-class stream flips between the classes'
// modes from run to run.
const (
	clsSkyline = iota
	clsSharded
	clsDominators
	clsClique
	clsSubset
	clsExplain
	clsLayers
	clsStats
	clsSwap
	numClasses
)

var classNames = [numClasses]string{"skyline", "sharded", "dominators", "clique",
	"subset", "explain", "layers", "stats", "swap"}

// workload fixes everything a run does except the seed: the ladder
// rung, the daemon's flags, the client count and each client's cyclic
// request script.
type workload struct {
	name    string
	n       int  // Chung–Lu rung: n vertices, m ≈ 3.5n, β = 2.5, degree-relabeled
	clients int  // closed-loop clients, one connection each
	tree    bool // daemon prebuilds the layered index (-tree)
	wal     bool // daemon runs durably (-wal, fsync always, no background checkpoints)
	// slots[i] is the class reported as c<i+1>_* in the metrics.
	slots [4]int
	// cycle is one client's repeating request pattern; client i starts
	// i·len(cycle)/clients into it so clients do not run in lock-step.
	cycle []int
	// warmCycles run before timing (counted in setup_s); the timed part
	// runs max(minCycles, seconds·cyclesPerSec) cycles per client. The
	// rate was calibrated so the timed part lasts about --seconds at the
	// commit that defined the benchmark; minCycles gives every reported
	// p90 at least minBeyond samples beyond it.
	warmCycles   int
	cyclesPerSec float64
	minCycles    int
	starts       int // cold starts per run; setup_s is their median
	restarts     int // kill -9 restarts per run; recovery_s is their median
}

var workloads = []*workload{
	{
		name: "engine-reads", n: 200_000, clients: 2,
		slots: [4]int{clsSkyline, clsSharded, clsDominators, clsClique},
		cycle: []int{clsSkyline, clsSharded, clsDominators, clsSkyline, clsSharded,
			clsSkyline, clsSharded, clsClique},
		warmCycles: 1, cyclesPerSec: 0.9, minCycles: 17, starts: 3, restarts: 5,
	},
	{
		name: "index-reads", n: 200_000, clients: 2, tree: true,
		slots:      [4]int{clsSubset, clsExplain, clsLayers, clsStats},
		cycle:      []int{clsSubset, clsExplain, clsSubset, clsLayers, clsStats},
		warmCycles: 200, cyclesPerSec: 730, minCycles: 100, starts: 5, restarts: 5,
	},
	{
		name: "durable-swaps", n: 20_000, clients: 1, tree: true, wal: true,
		slots: [4]int{clsSwap, clsSkyline, clsLayers, clsExplain},
		// Three cheap reads of each kind per swap: 113 samples of a
		// sub-millisecond class spread 0.15-0.25 between runs.
		cycle: []int{clsSwap, clsSkyline, clsLayers, clsExplain, clsLayers, clsExplain,
			clsLayers, clsExplain},
		warmCycles: 8, cyclesPerSec: 7.5, minCycles: 100, starts: 5, restarts: 3,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func (w *workload) timedCycles(seconds int) int {
	c := int(float64(seconds)*w.cyclesPerSec + 0.5)
	if c < w.minCycles {
		c = w.minCycles
	}
	return c
}

// Script parameters shared by the generator and the checks.
const (
	subsetSize  = 64  // ids per POST /v1/skyline/subset
	subsetPool  = 256 // distinct subsets per seed, each with a precomputed reference
	prefixLen   = 64  // skyline/layer members compared against the reference
	layersK     = 3   // GET /v1/skyline/layers?k=
	opsPerSwap  = 8   // edge updates per POST /v1/snapshot/swap
	shardsParam = 8   // GET /v1/skyline?shards=
)

// request is one scripted call. A script is a pure function of (seed,
// workload, client, k): nothing in it depends on timing or on another
// client's progress, so every run of one seed does the same work.
type request struct {
	class  int
	method string
	path   string
	// pool is the subset-pool index (subset); swap is the swap number
	// this request issues (swap) or reads after (durable reads).
	pool, swap int
	// verts are the vertices a dominators/explain request names.
	verts []int32
}

// mix hashes the script coordinates into one RNG seed.
func mix(parts ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range parts {
		for i := range b {
			b[i] = byte(p >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// id folds the workload into script seeds, so workloads run on one
// seed draw different requests.
func (w *workload) id() uint64 { return mix(uint64(len(w.name)), uint64(w.name[0]), uint64(w.n)) }

// script generates one run's requests from the seed alone.
type script struct {
	w    *workload
	seed uint64
	n    int
}

// at returns client i's k-th request (k counts from the first warm-up
// request).
func (s *script) at(i, k int) request {
	w := s.w
	pos := (k + i*len(w.cycle)/w.clients) % len(w.cycle)
	cls := w.cycle[pos]
	r := rng.New(mix(s.seed, w.id(), uint64(i), uint64(k)))
	// Durable-swaps has one client whose cycle starts with the swap, so
	// cycle c issues swap c and reads epoch c's state.
	cycle := k / len(w.cycle)
	req := request{class: cls, method: "GET", swap: cycle}
	switch cls {
	case clsSkyline:
		req.path = "/v1/skyline?limit=" + strconv.Itoa(prefixLen)
	case clsSharded:
		req.path = fmt.Sprintf("/v1/skyline?shards=%d&limit=%d", shardsParam, prefixLen)
	case clsDominators:
		req.verts = []int32{int32(r.Intn(s.n)), int32(r.Intn(s.n))}
		req.path = fmt.Sprintf("/v1/dominators?v=%d,%d", req.verts[0], req.verts[1])
	case clsClique:
		req.path = "/v1/clique?k=1"
	case clsSubset:
		req.method = "POST"
		req.pool = r.Intn(subsetPool)
		req.path = "/v1/skyline/subset?algo=tree"
	case clsExplain:
		req.verts = []int32{int32(r.Intn(s.n))}
		req.path = "/v1/skyline/explain?v=" + strconv.Itoa(int(req.verts[0]))
	case clsLayers:
		req.path = fmt.Sprintf("/v1/skyline/layers?k=%d&limit=%d", layersK, prefixLen)
	case clsStats:
		req.path = "/v1/stats"
	case clsSwap:
		req.method = "POST"
		req.path = "/v1/snapshot/swap"
	}
	return req
}

// subsetIDs draws subset-pool entry p: up to half the ids are
// neighbors of one vertex among the top sixteenth by degree (so the
// induced subgraph has edges and dominance to find), the rest uniform.
func subsetIDs(seed uint64, g *graph.Graph, p int) []int32 {
	r := rng.New(mix(seed, 0x5b5e7, uint64(p)))
	n := g.N()
	seen := make(map[int32]bool, subsetSize)
	out := make([]int32, 0, subsetSize)
	add := func(v int32) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	hub := int32(r.Intn((n + 15) / 16))
	add(hub)
	nb := g.Neighbors(hub)
	for tries := 0; len(nb) > 0 && len(out) < subsetSize/2 && tries < 4*subsetSize; tries++ {
		add(nb[r.Intn(len(nb))])
	}
	for len(out) < subsetSize {
		add(int32(r.Intn(n)))
	}
	return out
}

// swapOps draws swap s's batch: half insertions of uniform vertex
// pairs, half deletions of base-graph edges (a deletion of an edge an
// earlier swap already removed, or an insertion of a present edge, is a
// no-op the edge-set model accounts for).
func swapOps(seed uint64, base *graph.Graph, s int) []dynsky.Op {
	r := rng.New(mix(seed, 0x5a4b, uint64(s)))
	n := base.N()
	ops := make([]dynsky.Op, 0, opsPerSwap)
	for len(ops) < opsPerSwap {
		if len(ops)%2 == 0 {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				ops = append(ops, dynsky.Op{Add: true, U: u, V: v})
			}
			continue
		}
		u := int32(r.Intn(n))
		if nb := base.Neighbors(u); len(nb) > 0 {
			ops = append(ops, dynsky.Op{U: u, V: nb[r.Intn(len(nb))]})
		}
	}
	return ops
}

type swapOpJSON struct {
	Add bool  `json:"add"`
	U   int32 `json:"u"`
	V   int32 `json:"v"`
}

func swapBody(ops []dynsky.Op) []byte {
	js := make([]swapOpJSON, len(ops))
	for i, op := range ops {
		js[i] = swapOpJSON{Add: op.Add, U: op.U, V: op.V}
	}
	b, _ := json.Marshal(map[string]any{"ops": js}) // plain structs cannot fail to marshal
	return b
}

func subsetBody(ids []int32) []byte {
	b, _ := json.Marshal(map[string]any{"v": ids})
	return b
}

// genGraph builds the workload's ladder rung for seed: a Chung–Lu
// power-law graph (β = 2.5, expected m = 3.5n) relabeled by descending
// degree, the shape the ROADMAP ladder fixes.
func genGraph(n int, seed uint64) *graph.Graph {
	g, _, _ := gen.PowerLaw(n, 7*n/2, 2.5, seed).RelabelByDegree()
	return g
}

// scriptBytes renders clients' first k requests (with bodies) as text,
// for the determinism tests.
func scriptBytes(s *script, base *graph.Graph, k int) []byte {
	var buf bytes.Buffer
	for i := 0; i < s.w.clients; i++ {
		for j := 0; j < k; j++ {
			req := s.at(i, j)
			fmt.Fprintf(&buf, "%d %d %s %s", i, j, req.method, req.path)
			switch req.class {
			case clsSubset:
				buf.Write(subsetBody(subsetIDs(s.seed, base, req.pool)))
			case clsSwap:
				buf.Write(swapBody(swapOps(s.seed, base, req.swap)))
			}
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}
