package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"neisky/internal/clique"
	"neisky/internal/core"
	"neisky/internal/dynsky"
	"neisky/internal/graph"
	"neisky/internal/serve"
	"neisky/internal/skytree"
	"neisky/internal/wal"
)

// span is one timed interval: a call into a layer, a handler, or a
// client round trip. Spans of one request share req; parent is the id
// of the enclosing span (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a disabled tracer records nothing, so
// timing the same replay with it off and on gives the tracing overhead.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// values are per-layer counts and sizes recorded beside the spans.
	values map[string][]float64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), values: map[string][]float64{}}
}

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// beginReq starts a request's root span, whose id is the request id.
func (t *tracer) beginReq(name string) int {
	id := t.begin(name, 0, 0)
	if id != 0 {
		t.mu.Lock()
		t.spans[id-1].Req = id
		t.mu.Unlock()
	}
	return id
}

func (t *tracer) end(id int) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call wraps fn in a span.
func (t *tracer) call(name string, parent, req int, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
}

func (t *tracer) value(name string, v float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of it that its
// children's intervals cover, indexed by span id - 1.
func (t *tracer) selfTimes() []int64 {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// wrap times the handler under a span whose parent is the client span
// named in the request header.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(reqIDHeader))
		id := t.begin("serve.handler", parent, parent)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer lists the traced run's metrics. cN slots map to endpoint
// classes per workload, as in the untraced run.
var perLayer = []struct{ name, unit string }{
	{"graph.load_ms", "ms"},
	{"core.filterrefine_ms", "ms"},
	{"core.pairs_examined", "count"},
	{"core.inclusion_tests", "count"},
	{"core.bloom_probes", "count"},
	{"core.bloom_false_pos", "count"},
	{"core.hub_hits", "count"},
	{"core.sharded_ms", "ms"},
	{"sketch.skip_ratio", "ratio"},
	{"core.shard_skew", "ratio"},
	{"clique.neiskymc_ms", "ms"},
	{"clique.nodes", "count"},
	{"clique.prunes", "count"},
	{"skytree.build_ms", "ms"},
	{"skytree.subset_us", "us"},
	{"skytree.pairs_examined", "count"},
	{"skytree.witness_hit_ratio", "ratio"},
	{"skytree.explain_us", "us"},
	{"skytree.topk_us", "us"},
	{"skytree.maintainer_new_ms", "ms"},
	{"skytree.apply_ms", "ms"},
	{"skytree.copy_out_ms", "ms"},
	{"dynsky.new_ms", "ms"},
	{"dynsky.replay_us_per_op", "us"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_batch", "bytes"},
	{"wal.recover_scan_ms", "ms"},
	{"wal.replay_ms", "ms"},
	{"serve.swap_self_ms", "ms"},
	{"serve.c1.handler_ms", "ms"},
	{"serve.c2.handler_ms", "ms"},
	{"serve.c3.handler_ms", "ms"},
	{"serve.c4.handler_ms", "ms"},
	{"serve.client_gap_ms", "ms"},
	{"serve.store_acquire_ns", "ns"},
	{"serve.store_swap_us", "us"},
	{"serve.c1.response_bytes", "bytes"},
	{"serve.c2.response_bytes", "bytes"},
	{"serve.c3.response_bytes", "bytes"},
	{"serve.c4.response_bytes", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_bytes_per_req", "bytes"},
	{"trace.overhead_pct", "%"},
}

// layerReps sets how many times the replay repeats each heavy layer
// call: fewer on the 200k rung, where one maintainer or dynsky
// construction takes most of a second.
func layerReps(n int) int {
	if n >= 100_000 {
		return 2
	}
	return 8
}

// traceCycles is the traced run's script length: a quarter of the
// untraced timed part, enough for stable per-class medians.
func traceCycles(w *workload, seconds int) int { return max(1, w.timedCycles(seconds)/4) }

// runTraced is the per-layer run. It has three phases, each replaying
// the workload's script:
//
//  1. the child daemon, whose /debug/vars memstats before and after the
//     replay give the Go runtime figures;
//  2. an in-process daemon whose handler is wrapped in spans, giving
//     handler time, client time outside the handler and response size
//     per class, plus epoch-store acquire and swap costs;
//  3. direct calls into each layer's public functions in the handlers'
//     call order, once with the tracer off and once on; the difference
//     in wall time is the tracing overhead.
func runTraced(w *workload, seed uint64, seconds int, bin, work string) (*output, error) {
	// The in-process daemon and the layer calls get every processor the
	// child daemon would have.
	runtime.GOMAXPROCS(runtime.NumCPU())
	r, err := prepare(w, seed, seconds, bin, work)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	tc := traceCycles(w, seconds)
	from, to := w.warmCycles, w.warmCycles+tc

	// Phase 1: the child daemon's runtime.
	walDir := filepath.Join(r.dir, "wal-trace")
	d, err := r.start(walDir)
	if err != nil {
		return nil, err
	}
	r.runCycles(d, 0, from)
	before, err := memStats(d)
	if err != nil {
		d.kill()
		return nil, err
	}
	t0 := time.Now()
	daemonSamples := r.runCycles(d, from, to)
	daemonWall := time.Since(t0)
	after, err := memStats(d)
	d.kill()
	if err != nil {
		return nil, err
	}
	reqs := float64(len(daemonSamples))
	m["runtime.gc_cycles"] = metric{float64(after.NumGC - before.NumGC), "count"}
	m["runtime.gc_pause_ms"] = metric{float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6, "ms"}
	m["runtime.alloc_bytes_per_req"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / reqs, "bytes"}

	// Phase 2: the in-process daemon with spans around handler and client.
	tr := newTracer(true)
	inproc, closeInproc, err := startInProcess(r, tr, filepath.Join(r.dir, "wal-inproc"))
	if err != nil {
		return nil, err
	}
	r.tr = tr
	r.runCycles(inproc, 0, from)
	tr.spans, tr.values = nil, map[string][]float64{} // the warm-up is not measured
	r.runCycles(inproc, from, to)
	r.tr = nil
	storeAcquire, storeSwap := storeCosts(r.ref.g)
	closeInproc()
	self := tr.selfTimes()
	handler, gap := map[int][]float64{}, []float64{}
	for _, s := range tr.spans {
		if s.Name != "serve.handler" || s.Parent == 0 {
			continue
		}
		c := tr.spans[s.Parent-1]
		cls := slices.Index(classNames[:], strings.TrimPrefix(c.Name, "client."))
		handler[cls] = append(handler[cls], float64(s.End-s.Start)/1e6)
		gap = append(gap, float64(self[s.Parent-1])/1e6)
	}
	for i, c := range w.slots {
		m[fmt.Sprintf("serve.c%d.handler_ms", i+1)] = metric{median(handler[c]), "ms"}
		m[fmt.Sprintf("serve.c%d.response_bytes", i+1)] = metric{median(tr.values["bytes."+classNames[c]]), "bytes"}
	}
	m["serve.client_gap_ms"] = metric{median(gap), "ms"}
	m["serve.store_acquire_ns"] = metric{storeAcquire, "ns"}
	m["serve.store_swap_us"] = metric{storeSwap, "us"}
	clientSpans := tr.spans

	// Phase 3: the layers, untraced then traced.
	offWall, _, err := replayLayers(r, newTracer(false))
	if err != nil {
		return nil, err
	}
	layerTr := newTracer(true)
	onWall, layerMetrics, err := replayLayers(r, layerTr)
	if err != nil {
		return nil, err
	}
	for k, v := range layerMetrics {
		m[k] = v
	}
	overhead := (onWall - offWall) / offWall * 100
	m["trace.overhead_pct"] = metric{overhead, "%"}

	// Keep every span: the client/handler spans, then the layer spans
	// renumbered after them.
	all := &tracer{spans: clientSpans}
	off := len(clientSpans)
	for _, s := range layerTr.spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		all.spans = append(all.spans, s)
	}
	spanFile := filepath.Join(r.dir, "spans.jsonl")
	if err := all.write(spanFile); err != nil {
		return nil, err
	}

	fmt.Printf("traced run %s seed %d: n=%d m=%d, %d cycles per client, GOMAXPROCS=%d, CPU %s\n",
		w.name, seed, r.ref.base.n, r.ref.base.m, tc, runtime.GOMAXPROCS(0), cpuModel())
	fmt.Printf("spans written to %s; layer replay %.3fs untraced vs %.3fs traced (overhead %.2f%%)\n",
		spanFile, offWall, onWall, overhead)
	fmt.Printf("untraced child daemon: %d requests in %.3fs\n", len(daemonSamples), daemonWall.Seconds())
	fmt.Printf("%-4s %-10s %14s %14s %14s\n", "slot", "class", "daemon p50", "inproc client", "handler p50")
	inprocClient := map[int][]float64{}
	for _, s := range clientSpans {
		if name, ok := strings.CutPrefix(s.Name, "client."); ok {
			cls := slices.Index(classNames[:], name)
			inprocClient[cls] = append(inprocClient[cls], float64(s.End-s.Start)/1e6)
		}
	}
	for i, c := range w.slots {
		fmt.Printf("c%-3d %-10s %12.3fms %12.3fms %12.3fms\n", i+1, classNames[c],
			summarize(daemonSamples, c).p50, median(inprocClient[c]), median(handler[c]))
	}
	names := sortedKeys(m)
	for _, k := range names {
		fmt.Printf("  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	if len(m) != len(perLayer) {
		return nil, fmt.Errorf("traced run measured %d per-layer metrics, want the %d of perLayer", len(m), len(perLayer))
	}
	for _, p := range perLayer {
		v, ok := m[p.name]
		if !ok || v.Unit != p.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("per-layer metric %s (%s) missing or without samples: %+v", p.name, p.unit, v)
		}
	}
	att, failed := r.attempted.Load(), r.failed.Load()
	return &output{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: m}, nil
}

type memStatsJSON struct {
	NumGC        uint32 `json:"NumGC"`
	PauseTotalNs uint64 `json:"PauseTotalNs"`
	TotalAlloc   uint64 `json:"TotalAlloc"`
}

// memStats reads the daemon's Go runtime counters from /debug/vars.
func memStats(d *daemon) (memStatsJSON, error) {
	out, err := d.do("GET", "/debug/vars", nil, 0)
	if err != nil {
		return memStatsJSON{}, err
	}
	var v struct {
		Memstats memStatsJSON `json:"memstats"`
	}
	if err := json.Unmarshal(out, &v); err != nil {
		return memStatsJSON{}, fmt.Errorf("/debug/vars: %w", err)
	}
	return v.Memstats, nil
}

// startInProcess serves the workload's snapshot from this process, set
// up the way nsserve sets it up for the workload's flags, behind the
// tracer's handler wrapper.
func startInProcess(r *runner, tr *tracer, walDir string) (*daemon, func(), error) {
	g, err := graph.LoadBinaryFile(r.snapPath)
	if err != nil {
		return nil, nil, err
	}
	snap := &serve.Snapshot{Graph: g, Name: r.snapPath}
	var log *wal.Log
	if r.w.wal {
		if snap, log, _, err = serve.OpenDurable(walDir, snap, wal.Options{Sync: wal.SyncAlways}); err != nil {
			return nil, nil, err
		}
	}
	if r.w.tree {
		snap.Tree(context.Background())
	}
	srv := serve.New(snap, serve.Options{DefaultTimeout: 2 * time.Second, EnableDebug: false})
	if log != nil {
		srv.AttachWAL(log, 0)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	hs := &http.Server{Handler: tr.wrap(srv.Handler())}
	done := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // returns ErrServerClosed after Shutdown
		close(done)
	}()
	d := &daemon{base: "http://" + ln.Addr().String(), client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: r.w.clients, MaxIdleConnsPerHost: r.w.clients, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
	stop := func() {
		d.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // in-flight requests are done: the clients have returned
		<-done
		srv.Close()
	}
	return d, stop, nil
}

// storeCosts times the epoch store on its own: the median pin
// (Acquire + Release) in ns and the median Swap publish in µs.
func storeCosts(g *graph.Graph) (acquireNs, swapUs float64) {
	st := serve.NewStore(&serve.Snapshot{Graph: g})
	defer st.Close()
	const reps = 2000
	acq := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		p := st.Acquire()
		p.Release()
		acq = append(acq, float64(time.Since(t0).Nanoseconds()))
	}
	sw := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		snap := &serve.Snapshot{Graph: g}
		t0 := time.Now()
		_, _ = st.Swap(snap) // the store is open until the deferred Close
		sw = append(sw, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(acq), median(sw)
}

// replayLayers calls each layer's public functions directly, in the
// order the daemon's handlers call them, on the run's graph and script
// inputs. It returns the wall time in seconds and the per-layer
// metrics (self times and counts) taken from the tracer's spans.
func replayLayers(r *runner, tr *tracer) (float64, map[string]metric, error) {
	g0, ref := r.ref.g, r.ref
	reps := layerReps(g0.N())
	req := 0
	next := func() int { req++; return req }
	t0 := time.Now()

	var g *graph.Graph
	for i := 0; i < reps; i++ {
		var err error
		tr.call("graph.load", 0, next(), func() { g, err = graph.LoadBinaryFile(r.snapPath) })
		if err != nil {
			return 0, nil, err
		}
	}

	// GET /v1/skyline and /v1/dominators: serial FilterRefineSky.
	var frs *core.Result
	for i := 0; i < reps; i++ {
		tr.call("core.filterrefine", 0, next(), func() { frs = core.FilterRefineSky(g, core.Options{}) })
	}
	st := frs.Stats
	tr.value("core.pairs_examined", float64(st.PairsExamined))
	tr.value("core.inclusion_tests", float64(st.InclusionTests))
	tr.value("core.bloom_probes", float64(st.BloomProbes))
	tr.value("core.bloom_false_pos", float64(st.BloomFalsePos))
	tr.value("core.hub_hits", float64(st.HubHits))

	// GET /v1/skyline?shards=8: the sharded engine with the sketch filter.
	var sh *core.Result
	for i := 0; i < reps; i++ {
		tr.call("core.sharded", 0, next(), func() {
			sh = core.ShardedFilterRefineSky(g, core.Options{},
				core.ShardOptions{Shards: shardsParam, Workers: runtime.GOMAXPROCS(0)})
		})
	}
	if sh.Stats.SketchProbes > 0 {
		tr.value("sketch.skip_ratio", float64(sh.Stats.SketchSkips)/float64(sh.Stats.SketchProbes))
	}
	var maxPairs, sumPairs float64
	for _, s := range sh.ShardStats {
		maxPairs = max(maxPairs, float64(s.PairsExamined))
		sumPairs += float64(s.PairsExamined)
	}
	if len(sh.ShardStats) > 0 && sumPairs > 0 {
		tr.value("core.shard_skew", maxPairs/(sumPairs/float64(len(sh.ShardStats))))
	}

	// GET /v1/clique?k=1.
	for i := 0; i < reps; i++ {
		var c *clique.Result
		tr.call("clique.neiskymc", 0, next(), func() { c = clique.NeiSkyMC(g) })
		tr.value("clique.nodes", float64(c.Nodes))
		tr.value("clique.prunes", float64(c.Prunes))
	}

	// nsserve -tree, then the index reads.
	var t *skytree.Tree
	for i := 0; i < reps; i++ {
		tr.call("skytree.build", 0, next(), func() { t = skytree.Build(g, skytree.BuildOptions{}) })
	}
	sc := r.sc
	var pairs, hits, members float64
	for p := 0; p < subsetPool; p++ {
		ids := subsetIDs(sc.seed, g, p)
		var res *skytree.SubsetResult
		tr.call("skytree.subset", 0, next(), func() { res = skytree.SubsetSkyline(g, t, ids) })
		if ref.subSky != nil && !slices.Equal(res.Skyline, ref.subSky[p]) {
			return 0, nil, fmt.Errorf("replay: subset %d disagrees with the reference", p)
		}
		pairs += float64(res.PairsExamined)
		hits += float64(res.WitnessHits)
		members += float64(len(ids))
	}
	tr.value("skytree.pairs_examined", pairs/subsetPool)
	tr.value("skytree.witness_hit_ratio", hits/members)
	for k := 0; k < subsetPool; k++ {
		v := int32(k * g.N() / subsetPool)
		tr.call("skytree.explain", 0, next(), func() { t.Explain(v) })
		tr.call("skytree.topk", 0, next(), func() { t.TopK(layersK) })
	}

	// POST /v1/snapshot/swap on a durable daemon: maintainer from the
	// outgoing tree, apply, copy out, WAL append, publish.
	walDir := filepath.Join(r.dir, "wal-replay")
	if err := os.RemoveAll(walDir); err != nil {
		return 0, nil, err
	}
	log, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return 0, nil, err
	}
	if _, err := log.Checkpoint(g); err != nil {
		log.Close()
		return 0, nil, err
	}
	store := serve.NewStore(&serve.Snapshot{Graph: g})
	cur, curTree := g, t
	swaps := reps
	var allOps []dynsky.Op
	for s := 0; s < swaps; s++ {
		ops := swapOps(sc.seed, g0, s)
		allOps = append(allOps, ops...)
		id := next()
		parent := tr.begin("serve.swap", 0, id)
		var tm *skytree.Maintainer
		tr.call("skytree.maintainer_new", parent, id, func() { tm = skytree.NewMaintainerFromTree(cur, curTree) })
		var processed int
		var aerr error
		tr.call("skytree.apply", parent, id, func() { processed, _, aerr = tm.ApplyPrefixCtx(context.Background(), ops) })
		if aerr != nil {
			log.Close()
			return 0, nil, aerr
		}
		tr.call("skytree.copy_out", parent, id, func() { cur, curTree = tm.Graph(), tm.Tree() })
		var werr error
		tr.call("wal.append", parent, id, func() { _, werr = log.Append(ops[:processed]) })
		if werr != nil {
			log.Close()
			return 0, nil, werr
		}
		snap := &serve.Snapshot{Graph: cur}
		snap.SetTree(curTree)
		tr.call("serve.store_swap", parent, id, func() { _, werr = store.Swap(snap) })
		tr.end(parent)
		if werr != nil {
			log.Close()
			return 0, nil, werr
		}
	}
	store.Close()
	if err := log.Close(); err != nil {
		return 0, nil, err
	}
	if size, err := walBytes(walDir); err == nil {
		tr.value("wal.bytes_per_batch", float64(size)/float64(swaps))
	} else {
		return 0, nil, err
	}

	// Restart: WAL scan, then replay through dynsky.
	for i := 0; i < reps; i++ {
		var rec *wal.Recovered
		var err error
		tr.call("wal.recover_scan", 0, next(), func() { rec, err = wal.Recover(walDir) })
		if err != nil {
			return 0, nil, err
		}
		var dm *dynsky.Maintainer
		tr.call("wal.replay", 0, next(), func() { dm = rec.Replay() })
		if dm.M() != cur.M() {
			return 0, nil, fmt.Errorf("replay: recovered m=%d, want %d", dm.M(), cur.M())
		}
	}

	// dynsky on its own: construction, and per-op replay of the same ops.
	for i := 0; i < reps; i++ {
		var dm *dynsky.Maintainer
		tr.call("dynsky.new", 0, next(), func() { dm = dynsky.New(g) })
		id := tr.begin("dynsky.replay", 0, next())
		t1 := time.Now()
		dm.Apply(allOps)
		tr.end(id)
		tr.value("dynsky.replay_us_per_op", float64(time.Since(t1).Nanoseconds())/1e3/float64(len(allOps)))
	}
	wall := time.Since(t0).Seconds()
	if !tr.on {
		return wall, nil, nil
	}

	self := tr.selfTimes()
	byName := map[string][]float64{}
	for i, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], float64(self[i]))
	}
	out := map[string]metric{}
	ms := func(metricName, spanName string) { out[metricName] = metric{median(byName[spanName]) / 1e6, "ms"} }
	us := func(metricName, spanName string) { out[metricName] = metric{median(byName[spanName]) / 1e3, "us"} }
	ms("graph.load_ms", "graph.load")
	ms("core.filterrefine_ms", "core.filterrefine")
	ms("core.sharded_ms", "core.sharded")
	ms("clique.neiskymc_ms", "clique.neiskymc")
	ms("skytree.build_ms", "skytree.build")
	us("skytree.subset_us", "skytree.subset")
	us("skytree.explain_us", "skytree.explain")
	us("skytree.topk_us", "skytree.topk")
	ms("skytree.maintainer_new_ms", "skytree.maintainer_new")
	ms("skytree.apply_ms", "skytree.apply")
	ms("skytree.copy_out_ms", "skytree.copy_out")
	us("wal.append_us", "wal.append")
	ms("wal.recover_scan_ms", "wal.recover_scan")
	ms("wal.replay_ms", "wal.replay")
	ms("dynsky.new_ms", "dynsky.new")
	ms("serve.swap_self_ms", "serve.swap")
	for name, vs := range tr.values {
		unit := "count"
		switch name {
		case "sketch.skip_ratio", "skytree.witness_hit_ratio", "core.shard_skew":
			unit = "ratio"
		case "wal.bytes_per_batch":
			unit = "bytes"
		case "dynsky.replay_us_per_op":
			unit = "us"
		}
		out[name] = metric{median(vs), unit}
	}
	return wall, out, nil
}

func walBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".wal" {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			n += info.Size()
		}
	}
	return n, nil
}
