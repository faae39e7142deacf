package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"neisky/internal/centrality"
	"neisky/internal/clique"
	"neisky/internal/core"
	"neisky/internal/dynsky"
	"neisky/internal/graph"
	"neisky/internal/obs"
	"neisky/internal/runctl"
	"neisky/internal/skytree"
	"neisky/internal/wal"
)

// Options tunes the server. The zero value serves with a 30s timeout
// cap, no default timeout, uncapped budgets and 10k-entry list caps.
type Options struct {
	// DefaultTimeout bounds queries that set no ?timeout (0 = none
	// beyond MaxTimeout).
	DefaultTimeout time.Duration
	// MaxTimeout caps any per-query timeout; queries asking for more
	// (or for none, when DefaultTimeout is 0) get this. 0 = 30s.
	MaxTimeout time.Duration
	// MaxBudget caps the per-query ?budget work budget (0 = uncapped).
	MaxBudget int64
	// MaxList caps response list lengths (skyline members, dominator
	// entries, batch ops per swap); 0 = 10000.
	MaxList int
	// EnableDebug mounts /debug/{pprof,vars,metrics} on the serving
	// mux (deduplicated against obs.StartDebugServer).
	EnableDebug bool
	// MaxWorkers caps the per-query ?workers parallelism on the skyline
	// and centrality endpoints; 0 = GOMAXPROCS. Requests asking for more
	// are clamped, not rejected.
	MaxWorkers int
	// MaxInFlight caps concurrently-served /v1 requests across all
	// endpoints (0 = unbounded). Requests past the cap are rejected with
	// 429 + Retry-After instead of queueing. /healthz and /v1/stats stay
	// outside the gate so operators can observe an overloaded server.
	MaxInFlight int
	// Shed enables load shedding: once the in-flight count reaches 3/4
	// of MaxInFlight, query deadlines are clamped to ShedTimeout so the
	// anytime engines return truncated-but-sound answers quickly and the
	// backlog drains. No effect without MaxInFlight.
	Shed bool
	// ShedTimeout is the shed-mode deadline clamp (default 100ms).
	ShedTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxTimeout == 0 {
		o.MaxTimeout = 30 * time.Second
	}
	if o.MaxList == 0 {
		o.MaxList = 10000
	}
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	return o
}

// maxShards caps ?shards: far beyond any useful partition count while
// keeping the per-shard bookkeeping allocation trivially bounded.
const maxShards = 4096

// parseWorkers reads ?workers, clamped to [1, MaxWorkers]; 0 means the
// parameter was absent (engine default).
func (s *Server) parseWorkers(r *http.Request) (int, error) {
	v := r.URL.Query().Get("workers")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad workers %q (want a positive integer)", v)
	}
	if n > s.opts.MaxWorkers {
		n = s.opts.MaxWorkers
	}
	return n, nil
}

// parseShards reads ?shards, clamped to [1, maxShards]; 0 means absent.
func parseShards(r *http.Request) (int, error) {
	v := r.URL.Query().Get("shards")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad shards %q (want a positive integer)", v)
	}
	if n > maxShards {
		n = maxShards
	}
	return n, nil
}

// adviseOf returns the paging hint callback for mmap-backed snapshots
// (nil otherwise), so the sharded engine can request read-ahead of each
// shard's adjacency span.
func adviseOf(pin *Pin) func(lo, hi int32) {
	if mg, ok := pin.Snapshot().Closer.(*graph.Mapped); ok {
		return mg.AdviseRange
	}
	return nil
}

// Server answers the /v1 query surface against an epoch-managed
// snapshot store. Construct with New, expose Handler, and Close after
// the HTTP server has shut down (Close blocks until every epoch
// drains).
type Server struct {
	store  *Store
	opts   Options
	mux    *http.ServeMux
	swapMu sync.Mutex // serializes batch swaps: each derives from the then-current epoch
	start  time.Time
	adm    *admission // bounded in-flight gate (nil = unbounded)

	wal      *wal.Log // attached write-ahead log (nil = non-durable)
	ckptStop chan struct{}
	ckptWG   sync.WaitGroup
}

// New builds a server owning a fresh store seeded with snap.
func New(snap *Snapshot, opts Options) *Server {
	return NewFromStore(NewStore(snap), opts)
}

// NewFromStore builds a server over an existing store (shared, e.g.,
// with a background ingest loop). The server takes over Close.
func NewFromStore(store *Store, opts Options) *Server {
	s := &Server{store: store, opts: opts.withDefaults(), mux: http.NewServeMux(), start: time.Now()}
	s.adm = newAdmission(s.opts)
	s.mux.HandleFunc("/v1/skyline", s.instrument("skyline", s.handleSkyline))
	s.mux.HandleFunc("/v1/skyline/layers", s.instrument("layers", s.handleLayers))
	s.mux.HandleFunc("/v1/skyline/subset", s.instrument("subset", s.handleSubset))
	s.mux.HandleFunc("/v1/skyline/explain", s.instrument("explain", s.handleExplain))
	s.mux.HandleFunc("/v1/centrality/group", s.instrument("centrality", s.handleCentrality))
	s.mux.HandleFunc("/v1/clique", s.instrument("clique", s.handleClique))
	s.mux.HandleFunc("/v1/dominators", s.instrument("dominators", s.handleDominators))
	s.mux.HandleFunc("/v1/snapshot/swap", s.instrument("swap", s.handleSwap))
	s.mux.HandleFunc("/v1/checkpoint", s.instrument("checkpoint", s.handleCheckpoint))
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	if s.opts.EnableDebug {
		obs.AttachDebug(s.mux)
	}
	return s
}

// Handler returns the serving mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Connection limits of the daemon's HTTP server. Admission control
// (MaxInFlight) only sees requests whose headers have arrived, so a
// client that trickles its request line, or parks an idle keep-alive
// connection, would otherwise hold a connection no gate counts. There
// is deliberately no write timeout: queries carry their own deadlines.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
	maxHeaderBytes    = 64 << 10
)

// HTTPServer returns an http.Server for Handler with the connection
// limits above; the caller runs Serve and Shutdown.
func (s *Server) HTTPServer() *http.Server {
	return newHTTPServer(s.Handler(), readHeaderTimeout)
}

func newHTTPServer(h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: headerTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// Store returns the snapshot store (for tests and embedding CLIs).
func (s *Server) Store() *Store { return s.store }

// Close stops the checkpoint loop, shuts the store down, and closes
// the attached WAL (if any); call only after in-flight requests have
// drained (http.Server.Shutdown does that).
func (s *Server) Close() {
	s.stopCheckpointLoop()
	s.store.Close()
	if s.wal != nil {
		_ = s.wal.Close()
	}
}

// meta is the envelope every query response carries: which epoch
// answered, its graph size, wall time, and the anytime markers.
type meta struct {
	Epoch     uint64 `json:"epoch"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	ElapsedNs int64  `json:"elapsed_ns"`
	Truncated bool   `json:"truncated"`
	Cause     string `json:"cause,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// statusWriter captures the response code for the error counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the admission gate and the
// per-endpoint obs surface: serve.<name>.requests / .errors counters
// and a serve.<name>.latency timer, all no-ops when recording is
// disabled. The gate runs first, so a 429 counts as .rejected (in
// admit), never as .errors — rejections are the gate working, not the
// endpoint failing.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, r, ok := s.admit(name, w, r)
		if !ok {
			return
		}
		defer release()
		rec := obs.Get()
		if rec == nil {
			h(w, r)
			return
		}
		rec.Add("serve."+name+".requests", 1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		sp := rec.Start("serve." + name + ".latency")
		h(sw, r)
		sp.End()
		if sw.status >= 400 {
			rec.Add("serve."+name+".errors", 1)
		}
	}
}

// markTruncated fills the anytime markers and bumps the per-endpoint
// truncation counter.
func (m *meta) markTruncated(endpoint string, err error) {
	m.Truncated = true
	m.Cause = runctl.CauseString(err)
	if rec := obs.Get(); rec != nil {
		rec.Add("serve."+endpoint+".truncated", 1)
	}
}

// queryContext derives the per-query context: the request context (a
// dropped client connection cancels the engines mid-run), the ?timeout
// deadline clamped to [0, MaxTimeout] (DefaultTimeout when absent), and
// the ?budget work budget clamped to MaxBudget.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	q := r.URL.Query()
	d := s.opts.DefaultTimeout
	if v := q.Get("timeout"); v != "" {
		td, err := time.ParseDuration(v)
		if err != nil || td <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q (want a positive Go duration)", v)
		}
		d = td
	}
	if d == 0 || d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	// Under shed-mode overload the admission gate clamps every deadline:
	// a fast truncated answer over a queued complete one.
	if sd := shedDeadline(r.Context()); sd > 0 && sd < d {
		d = sd
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	if v := q.Get("budget"); v != "" {
		b, err := strconv.ParseInt(v, 10, 64)
		if err != nil || b <= 0 {
			cancel()
			return nil, nil, fmt.Errorf("bad budget %q (want a positive integer)", v)
		}
		if s.opts.MaxBudget > 0 && b > s.opts.MaxBudget {
			b = s.opts.MaxBudget
		}
		ctx = runctl.WithBudget(ctx, b)
	}
	return ctx, cancel, nil
}

// acquire pins the current snapshot or reports 503 (shutting down).
func (s *Server) acquire(w http.ResponseWriter) *Pin {
	pin := s.store.Acquire()
	if pin == nil {
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
	}
	return pin
}

func (s *Server) limit(q int) int {
	if q <= 0 || q > s.opts.MaxList {
		return s.opts.MaxList
	}
	return q
}

// parseLimit reads ?limit, defaulting to (and capping at) MaxList.
func (s *Server) parseLimit(r *http.Request) (int, error) {
	v := r.URL.Query().Get("limit")
	if v == "" {
		return s.opts.MaxList, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad limit %q (want a non-negative integer)", v)
	}
	return s.limit(n), nil
}

type skylineResponse struct {
	meta
	Algo           string  `json:"algo"`
	SkylineSize    int     `json:"skyline_size"`
	Skyline        []int32 `json:"skyline"`
	CandidatesSize int     `json:"candidates_size,omitempty"`
	Workers        int     `json:"workers,omitempty"`
	Shards         int     `json:"shards,omitempty"`
}

// skylineAlgos maps the ?algo values to the cancellable engines. The
// quadratic oracle is deliberately absent: it cannot honor deadlines.
var skylineAlgos = map[string]func(context.Context, *graph.Graph, core.Options) *core.Result{
	"":             core.FilterRefineSkyCtx,
	"filterrefine": core.FilterRefineSkyCtx,
	"base":         core.BaseSkyCtx,
	"2hop":         core.Base2HopCtx,
	"cset":         core.BaseCSetCtx,
}

// handleSkyline serves GET
// /v1/skyline?algo=&timeout=&budget=&limit=&workers=&shards=.
// Either ?workers or ?shards runs the sharded engine: ?workers
// (clamped to Options.MaxWorkers, default MaxWorkers) sizes the worker
// pool and ?shards (default 4 × workers) the number of contiguous
// vertex shards; mmap-backed snapshots get per-shard paging hints.
// Both only apply to the filterrefine algorithm — either on any other
// algo is a 400. A truncated run still returns 200: the
// listed set is a sound superset of the true skyline (the filter/refine
// contract), flagged with truncated=true and the cause.
func (s *Server) handleSkyline(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	algoName := r.URL.Query().Get("algo")
	algo, ok := skylineAlgos[algoName]
	if !ok {
		writeErr(w, http.StatusBadRequest, "unknown algo %q (want filterrefine|base|2hop|cset)", algoName)
		return
	}
	filterRefine := algoName == "" || algoName == "filterrefine"
	workers, err := s.parseWorkers(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	shards, err := parseShards(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if (shards > 0 || workers > 0) && !filterRefine {
		writeErr(w, http.StatusBadRequest, "workers/shards apply only to algo filterrefine, not %q", algoName)
		return
	}
	limit, err := s.parseLimit(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel, err := s.queryContext(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	pin := s.acquire(w)
	if pin == nil {
		return
	}
	defer pin.Release()

	g := pin.Graph()
	name := (map[string]string{"": "FilterRefineSky", "filterrefine": "FilterRefineSky",
		"base": "BaseSky", "2hop": "Base2Hop", "cset": "BaseCSet"})[algoName]
	start := time.Now()
	var res *core.Result
	if shards > 0 || workers > 0 {
		if workers == 0 {
			workers = s.opts.MaxWorkers
		}
		res = core.ShardedFilterRefineSkyCtx(ctx, g, core.Options{},
			core.ShardOptions{Shards: shards, Workers: workers, Advise: adviseOf(pin)})
		name = "ShardedFilterRefineSky"
	} else {
		res = algo(ctx, g, core.Options{})
	}
	resp := skylineResponse{
		meta:        meta{Epoch: pin.Epoch(), N: g.N(), M: g.M(), ElapsedNs: time.Since(start).Nanoseconds()},
		Algo:        name,
		SkylineSize: len(res.Skyline),
		Skyline:     clip(res.Skyline, limit),
		Workers:     workers,
		Shards:      shards,
	}
	if res.Candidates != nil {
		resp.CandidatesSize = len(res.Candidates)
	}
	if res.Truncated {
		resp.markTruncated("skyline", res.Err)
	}
	writeJSON(w, http.StatusOK, resp)
}

func clip(v []int32, limit int) []int32 {
	if len(v) > limit {
		return v[:limit]
	}
	if v == nil {
		return []int32{} // JSON [] instead of null
	}
	return v
}

type centralityResponse struct {
	meta
	K         int     `json:"k"`
	Measure   string  `json:"measure"`
	Group     []int32 `json:"group"`
	Value     float64 `json:"value"`
	GainCalls int     `json:"gain_calls"`
	Workers   int     `json:"workers,omitempty"`
}

// handleCentrality serves GET /v1/centrality/group?k=&measure=. It is
// the paper's NeiSkyGC/NeiSkyGH under a context: skyline candidates,
// lazy greedy, pruned BFS. On truncation Group is the prefix of true
// greedy picks committed so far.
func (s *Server) handleCentrality(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil || k < 1 {
		writeErr(w, http.StatusBadRequest, "bad k %q (want a positive integer)", q.Get("k"))
		return
	}
	var measure centrality.Measure
	switch q.Get("measure") {
	case "", "closeness":
		measure = centrality.CLOSENESS
	case "harmonic":
		measure = centrality.HARMONIC
	default:
		writeErr(w, http.StatusBadRequest, "unknown measure %q (want closeness|harmonic)", q.Get("measure"))
		return
	}
	workers, err := s.parseWorkers(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel, err := s.queryContext(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	pin := s.acquire(w)
	if pin == nil {
		return
	}
	defer pin.Release()

	g := pin.Graph()
	if k > g.N() {
		k = g.N()
	}
	start := time.Now()
	sky := core.FilterRefineSkyCtx(ctx, g, core.Options{})
	res := centrality.GreedyCtx(ctx, g, k, measure,
		centrality.Options{Candidates: sky.Skyline, Lazy: true, PrunedBFS: true, Workers: workers})
	resp := centralityResponse{
		meta:      meta{Epoch: pin.Epoch(), N: g.N(), M: g.M(), ElapsedNs: time.Since(start).Nanoseconds()},
		K:         k,
		Measure:   map[centrality.Measure]string{centrality.CLOSENESS: "closeness", centrality.HARMONIC: "harmonic"}[measure],
		Group:     clip(res.Group, s.opts.MaxList),
		Value:     res.Value,
		GainCalls: res.GainCalls,
		Workers:   workers,
	}
	// A truncated skyline is still a sound (superset) candidate pool,
	// but the response must say the answer may differ from a full run.
	if res.Truncated || sky.Truncated {
		err := res.Err
		if err == nil {
			err = sky.Err
		}
		resp.markTruncated("centrality", err)
	}
	writeJSON(w, http.StatusOK, resp)
}

type cliqueResponse struct {
	meta
	Size    int       `json:"size"`
	Clique  []int32   `json:"clique"`
	Cliques [][]int32 `json:"cliques,omitempty"`
}

// handleClique serves GET /v1/clique?k=. k=1 (the default) is the
// skyline-seeded maximum-clique search; k>1 returns the k largest
// distinct cliques. On truncation every listed clique is genuine — the
// incumbent(s) of the branch-and-bound — just possibly not maximum.
func (s *Server) handleClique(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	k := 1
	if v := r.URL.Query().Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "bad k %q (want a positive integer)", v)
			return
		}
		k = n
	}
	if k > s.opts.MaxList {
		k = s.opts.MaxList
	}
	ctx, cancel, err := s.queryContext(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	pin := s.acquire(w)
	if pin == nil {
		return
	}
	defer pin.Release()

	g := pin.Graph()
	start := time.Now()
	resp := cliqueResponse{meta: meta{Epoch: pin.Epoch(), N: g.N(), M: g.M()}}
	if k == 1 {
		res := clique.NeiSkyMCCtx(ctx, g)
		resp.Size = len(res.Clique)
		resp.Clique = clip(res.Clique, s.opts.MaxList)
		if res.Truncated {
			resp.markTruncated("clique", res.Err)
		}
	} else {
		res := clique.NeiSkyTopkMCCCtx(ctx, g, k)
		resp.Cliques = res.Cliques
		if len(res.Cliques) > 0 {
			resp.Size = len(res.Cliques[0])
			resp.Clique = res.Cliques[0]
		} else {
			resp.Clique = []int32{}
			resp.Cliques = [][]int32{}
		}
		if res.Truncated {
			resp.markTruncated("clique", res.Err)
		}
	}
	resp.ElapsedNs = time.Since(start).Nanoseconds()
	writeJSON(w, http.StatusOK, resp)
}

type dominatorEntry struct {
	V         int32 `json:"v"`
	Dominator int32 `json:"dominator"`
	InSkyline bool  `json:"in_skyline"`
}

type dominatorsResponse struct {
	meta
	SkylineSize int              `json:"skyline_size"`
	Dominators  []dominatorEntry `json:"dominators"`
}

// handleDominators serves GET /v1/dominators?v=3,7,12 — the paper's O
// array restricted to the requested vertices (all vertices, list-capped,
// when ?v is absent). Each entry names one dominator; in_skyline
// entries dominate themselves. On truncation in_skyline=true means
// "not yet proven dominated".
func (s *Server) handleDominators(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	limit, err := s.parseLimit(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel, err := s.queryContext(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	pin := s.acquire(w)
	if pin == nil {
		return
	}
	defer pin.Release()

	g := pin.Graph()
	var verts []int32
	if raw := strings.TrimSpace(r.URL.Query().Get("v")); raw != "" {
		for _, tok := range strings.Split(raw, ",") {
			id, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 32)
			if err != nil || id < 0 || id >= int64(g.N()) {
				writeErr(w, http.StatusBadRequest, "bad vertex id %q (graph has %d vertices)", tok, g.N())
				return
			}
			verts = append(verts, int32(id))
		}
		if len(verts) > limit {
			verts = verts[:limit]
		}
	}

	start := time.Now()
	res := core.FilterRefineSkyCtx(ctx, g, core.Options{})
	if verts == nil {
		top := g.N()
		if top > limit {
			top = limit
		}
		verts = make([]int32, top)
		for i := range verts {
			verts[i] = int32(i)
		}
	}
	entries := make([]dominatorEntry, len(verts))
	for i, v := range verts {
		d := res.Dominator[v]
		entries[i] = dominatorEntry{V: v, Dominator: d, InSkyline: d == v}
	}
	resp := dominatorsResponse{
		meta:        meta{Epoch: pin.Epoch(), N: g.N(), M: g.M(), ElapsedNs: time.Since(start).Nanoseconds()},
		SkylineSize: len(res.Skyline),
		Dominators:  entries,
	}
	if res.Truncated {
		resp.markTruncated("dominators", res.Err)
	}
	writeJSON(w, http.StatusOK, resp)
}

// swapRequest is the POST /v1/snapshot/swap body: either a snapshot
// file to load, or a batch of edge updates to apply to the current
// snapshot via internal/dynsky.
type swapRequest struct {
	Path string   `json:"path,omitempty"`
	Mmap bool     `json:"mmap,omitempty"`
	Ops  []swapOp `json:"ops,omitempty"`
}

type swapOp struct {
	Add bool  `json:"add"`
	U   int32 `json:"u"`
	V   int32 `json:"v"`
}

type swapResponse struct {
	meta
	Applied     int    `json:"applied"`
	SkylineSize int    `json:"skyline_size,omitempty"`
	Source      string `json:"source"`
}

// maxSwapBody bounds the swap request body (1 MiB of ops ≈ 25k ops,
// well past MaxList).
const maxSwapBody = 1 << 20

// handleSwap serves POST /v1/snapshot/swap. The new snapshot is built
// entirely off to the side — from a file, or by replaying an edge batch
// through a dynsky maintainer seeded from the pinned current graph —
// and published with one atomic store; in-flight queries keep their
// pinned epoch until they drain. Batch swaps are serialized so each
// derives from its predecessor. A cancelled batch publishes the exact
// applied prefix (dynsky's per-op atomicity) with truncated=true.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req swapRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSwapBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad swap request: %v", err)
		return
	}
	switch {
	case req.Path != "" && len(req.Ops) > 0:
		writeErr(w, http.StatusBadRequest, "swap request wants either path or ops, not both")
		return
	case req.Path == "" && len(req.Ops) == 0:
		writeErr(w, http.StatusBadRequest, "swap request needs a path or a non-empty ops batch")
		return
	case len(req.Ops) > s.opts.MaxList:
		writeErr(w, http.StatusBadRequest, "ops batch of %d exceeds the %d cap", len(req.Ops), s.opts.MaxList)
		return
	}
	if req.Path != "" {
		s.swapFromFile(w, r, req)
		return
	}
	s.swapFromOps(w, r, req.Ops)
}

func (s *Server) swapFromFile(w http.ResponseWriter, r *http.Request, req swapRequest) {
	snap, err := SnapshotFromFile(req.Path, req.Mmap)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "load %s: %v", req.Path, err)
		return
	}
	g := snap.Graph
	// A file swap replaces the WAL lineage wholesale: no op sequence
	// connects the old state to the new graph, so the cut-over is made
	// durable as a checkpoint BEFORE the epoch is published — same
	// ack-after-durable ordering as batch swaps. The swap lock keeps
	// appends and other checkpoints out from under the lineage change.
	if s.wal != nil {
		s.swapMu.Lock()
		defer s.swapMu.Unlock()
		if _, err := s.wal.Checkpoint(g); err != nil {
			if snap.Closer != nil {
				_ = snap.Closer.Close()
			}
			writeErr(w, http.StatusServiceUnavailable, "wal checkpoint: %v", err)
			return
		}
	}
	id, err := s.store.Swap(snap)
	if err != nil {
		if snap.Closer != nil {
			_ = snap.Closer.Close()
		}
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, swapResponse{
		meta:   meta{Epoch: id, N: g.N(), M: g.M()},
		Source: snap.Name,
	})
}

func (s *Server) swapFromOps(w http.ResponseWriter, r *http.Request, ops []swapOp) {
	ctx, cancel, err := s.queryContext(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()

	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	pin := s.acquire(w)
	if pin == nil {
		return
	}
	g := pin.Graph()
	batch := make([]dynsky.Op, len(ops))
	for i, op := range ops {
		if op.U < 0 || op.V < 0 || int(op.U) >= g.N() || int(op.V) >= g.N() || op.U == op.V {
			pin.Release()
			writeErr(w, http.StatusBadRequest, "bad op %d: edge (%d,%d) on %d vertices", i, op.U, op.V, g.N())
			return
		}
		batch[i] = dynsky.Op{Add: op.Add, U: op.U, V: op.V}
	}

	start := time.Now()
	// If the outgoing snapshot has a built layered index, carry it over
	// incrementally (skytree re-peels only each op's local region)
	// instead of leaving the new epoch to a lazy from-scratch rebuild.
	// A cancelled batch publishes the exact applied prefix either way.
	var processed, applied int
	var applyErr error
	var snap *Snapshot
	var skySize int
	if prev := pin.Snapshot().TreeIfBuilt(); prev != nil {
		tm := skytree.NewMaintainerFromTree(g, prev)
		pin.Release() // the maintainer owns a private copy now
		processed, applied, applyErr = tm.ApplyPrefixCtx(ctx, batch)
		snap = &Snapshot{Graph: tm.Graph(), Name: fmt.Sprintf("batch:%d", applied)}
		snap.SetTree(tm.Tree())
		skySize = tm.Dyn().SkylineSize()
	} else {
		m := dynsky.New(g)
		pin.Release() // the maintainer owns a private copy now
		processed, applied, applyErr = m.ApplyPrefixCtx(ctx, batch)
		snap = &Snapshot{Graph: m.Graph(), Name: fmt.Sprintf("batch:%d", applied)}
		skySize = m.SkylineSize()
	}
	// Ack-after-durable: the processed prefix — exactly what the new
	// snapshot's state reflects — reaches the WAL before the epoch is
	// published or the client answered. A failed append publishes
	// nothing: the client retries against the old (still durable) state.
	if s.wal != nil && processed > 0 {
		if _, err := s.wal.Append(batch[:processed]); err != nil {
			writeErr(w, http.StatusServiceUnavailable, "wal append: %v", err)
			return
		}
	}
	id, err := s.store.Swap(snap)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	resp := swapResponse{
		meta: meta{Epoch: id, N: snap.Graph.N(), M: snap.Graph.M(),
			ElapsedNs: time.Since(start).Nanoseconds()},
		Applied:     applied,
		SkylineSize: skySize,
		Source:      snap.Name,
	}
	if applyErr != nil {
		resp.markTruncated("swap", applyErr)
	}
	writeJSON(w, http.StatusOK, resp)
}

type statsResponse struct {
	Epoch         uint64  `json:"epoch"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	Snapshot      string  `json:"snapshot"`
	MaxDegree     int     `json:"max_degree"`
	AvgDegree     float64 `json:"avg_degree"`
	Swaps         int64   `json:"swaps"`
	RetiredEpochs int64   `json:"retired_epochs"`
	UptimeNs      int64   `json:"uptime_ns"`
	InFlight      int64   `json:"in_flight,omitempty"`
	WALLastSeq    uint64  `json:"wal_last_seq,omitempty"`
	WALCkptSeq    uint64  `json:"wal_checkpoint_seq,omitempty"`
	WALSegments   int     `json:"wal_segments,omitempty"`
}

// handleStats serves GET /v1/stats: the current snapshot's identity and
// shape plus the store's swap/retire counters. Per-endpoint latency and
// truncation metrics live on /debug/metrics.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	pin := s.acquire(w)
	if pin == nil {
		return
	}
	defer pin.Release()
	g := pin.Graph()
	st := g.Stats()
	resp := statsResponse{
		Epoch:         pin.Epoch(),
		N:             g.N(),
		M:             g.M(),
		Snapshot:      pin.Snapshot().Name,
		MaxDegree:     st.MaxDegree,
		AvgDegree:     st.AvgDegree,
		Swaps:         s.store.Swaps(),
		RetiredEpochs: s.store.RetiredEpochs(),
		UptimeNs:      time.Since(s.start).Nanoseconds(),
		InFlight:      s.InFlight(),
	}
	if s.wal != nil {
		resp.WALLastSeq = s.wal.LastSeq()
		resp.WALCkptSeq = s.wal.CheckpointSeq()
		resp.WALSegments = s.wal.Segments()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	pin := s.store.Acquire()
	if pin == nil {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	pin.Release()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// SnapshotFromFile loads a serving snapshot from path: a binary
// snapshot is heap-loaded (or mmap'd when useMmap is set), anything
// else is parsed as a text edge list. Closer is non-nil exactly when
// the graph aliases a mapping.
func SnapshotFromFile(path string, useMmap bool) (*Snapshot, error) {
	if graph.IsBinarySnapshot(path) {
		if useMmap {
			mg, err := graph.OpenMmap(path)
			if err != nil {
				return nil, err
			}
			return &Snapshot{Graph: mg.Graph, Closer: mg, Name: path}, nil
		}
		g, err := graph.LoadBinaryFile(path)
		if err != nil {
			return nil, err
		}
		return &Snapshot{Graph: g, Name: path}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		return nil, err
	}
	return &Snapshot{Graph: g, Name: path}, nil
}
