package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"neisky/internal/graph"
)

// runner drives one workload's scripts against a daemon and checks
// every answer.
type runner struct {
	w         *workload
	sc        *script
	ref       *reference
	bin, dir  string
	snapPath  string
	attempted atomic.Int64
	failed    atomic.Int64
	logged    atomic.Int64
	tr        *tracer // set while the traced run replays against the in-process daemon
}

type sample struct {
	class int
	ms    float64
}

// prepare generates the seed's graph and snapshot file and computes
// the reference answers; none of it counts as daemon set-up.
func prepare(w *workload, seed uint64, seconds int, bin, work string) (*runner, error) {
	// One directory per workload, emptied by every run, keeps disk use
	// flat however many seeds run.
	dir := filepath.Join(work, w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	g := genGraph(w.n, seed)
	r := &runner{w: w, bin: bin, dir: dir, snapPath: filepath.Join(dir, "graph.nsb2")}
	if err := g.WriteBinaryFile(r.snapPath, graph.FlagDegreeRelabeled|graph.FlagChecksum); err != nil {
		return nil, err
	}
	r.sc = &script{w: w, seed: seed, n: g.N()}
	ref, err := buildReference(w, r.sc, g, w.warmCycles+w.timedCycles(seconds))
	if err != nil {
		return nil, err
	}
	r.ref = ref
	return r, nil
}

// daemonArgs are the nsserve flags of the workload; walDir is used only
// by durable workloads.
func (r *runner) daemonArgs(walDir string) []string {
	args := []string{"-input", r.snapPath}
	if r.w.tree {
		args = append(args, "-tree")
	}
	if r.w.wal {
		args = append(args, "-wal", walDir, "-wal-sync", "always", "-checkpoint-every", "0")
	}
	return args
}

func (r *runner) start(walDir string) (*daemon, error) {
	return startDaemon(r.bin, r.dir, r.daemonArgs(walDir), r.w.clients)
}

// fail counts a failed request and reports the first few.
func (r *runner) fail(what string, err error) {
	r.failed.Add(1)
	if r.logged.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", what, err)
	}
}

// want is the reference state request req must observe.
func (r *runner) want(req request) state {
	if r.ref.swaps != nil {
		return r.ref.swaps[req.swap]
	}
	return r.ref.base
}

// exec sends client i's k-th request and checks the answer.
func (r *runner) exec(d *daemon, i, k int) sample {
	req := r.sc.at(i, k)
	var body []byte
	switch req.class {
	case clsSubset:
		body = r.ref.subBody[req.pool]
	case clsSwap:
		body = r.ref.swapBy[req.swap]
	}
	r.attempted.Add(1)
	id := 0
	if r.tr != nil {
		id = r.tr.beginReq("client." + classNames[req.class])
	}
	t0 := time.Now()
	out, err := d.do(req.method, req.path, body, id)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if r.tr != nil {
		r.tr.end(id)
		r.tr.value("bytes."+classNames[req.class], float64(len(out)))
	}
	if err == nil {
		err = r.check(req, out)
	}
	if err != nil {
		r.fail(fmt.Sprintf("client %d request %d (%s %s)", i, k, req.method, req.path), err)
	}
	return sample{class: req.class, ms: ms}
}

func (r *runner) check(req request, out []byte) error {
	want := r.want(req)
	switch req.class {
	case clsSkyline, clsSharded:
		return checkSkyline(out, want)
	case clsDominators:
		return checkDominators(out, r.ref, req.verts)
	case clsClique:
		return checkClique(out, r.ref)
	case clsSubset:
		return checkSubset(out, r.ref, req.pool)
	case clsExplain:
		chain := r.ref.tree.Explain(req.verts[0])
		if r.ref.explain != nil {
			chain = r.ref.explain[req.swap][req.verts[0]]
		}
		return checkExplain(out, want, req.verts[0], chain)
	case clsLayers:
		return checkLayers(out, want)
	case clsStats:
		return checkStats(out, want)
	case clsSwap:
		return checkSwap(out, want)
	}
	return fmt.Errorf("no check for class %d", req.class)
}

// runCycles runs cycles [from, to) of every client's script, each
// client a closed loop on its own goroutine, and returns the samples.
func (r *runner) runCycles(d *daemon, from, to int) []sample {
	per := len(r.w.cycle)
	out := make([][]sample, r.w.clients)
	var wg sync.WaitGroup
	for i := 0; i < r.w.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := make([]sample, 0, (to-from)*per)
			for k := from * per; k < to*per; k++ {
				s = append(s, r.exec(d, i, k))
			}
			out[i] = s
		}(i)
	}
	wg.Wait()
	return slices.Concat(out...)
}

// probe is the request a restarted daemon must answer correctly: the
// skyline (engine, durable) or the layers (index) of the last state.
func (r *runner) probe(d *daemon) {
	want := r.ref.base
	path := "/v1/skyline?limit=" + fmt.Sprint(prefixLen)
	check := checkSkyline
	if r.ref.swaps != nil {
		want = r.ref.swaps[len(r.ref.swaps)-1]
		want.epoch = 1 // a restart publishes the recovered state as epoch 1
	} else if r.w.tree {
		path = fmt.Sprintf("/v1/skyline/layers?k=%d&limit=%d", layersK, prefixLen)
		check = checkLayers
	}
	r.attempted.Add(1)
	out, err := d.do("GET", path, nil, 0)
	if err == nil {
		err = check(out, want)
	}
	if err != nil {
		r.fail("restart probe", err)
	}
}

type classStats struct {
	count         int
	p50, p90, p99 float64 // NaN where too few samples
}

func summarize(samples []sample, class int) classStats {
	var xs []float64
	for _, s := range samples {
		if s.class == class {
			xs = append(xs, s.ms)
		}
	}
	xs = sortedCopy(xs)
	cs := classStats{count: len(xs)}
	pick := func(q float64) float64 {
		v, err := percentile(xs, q)
		if err != nil {
			return nan
		}
		return v
	}
	cs.p50, cs.p90, cs.p99 = pick(0.5), pick(0.9), pick(0.99)
	return cs
}

// result is one untraced run's measurements.
type result struct {
	attempted, failed int64
	setup, recovery   []float64
	wall              float64 // seconds of the timed part
	reads             int
	rssMB             float64
	classes           map[int]classStats
}

// runUntraced performs one full run: cold starts with warm-up, the
// timed script, and kill -9 restarts.
func (r *runner) runUntraced(seconds int) (*result, error) {
	w := r.w
	warm, total := w.warmCycles, w.warmCycles+w.timedCycles(seconds)
	res := &result{classes: map[int]classStats{}}
	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	walDir := ""
	for s := 0; s < w.starts; s++ {
		if d != nil {
			d.kill()
		}
		// A durable cold start initializes a fresh WAL directory; the
		// last one is kept for the timed part and the restarts.
		if w.wal {
			if walDir != "" {
				if err := os.RemoveAll(walDir); err != nil {
					return nil, err
				}
			}
			walDir = filepath.Join(r.dir, fmt.Sprintf("wal%d", s))
		}
		t0 := time.Now()
		var err error
		if d, err = r.start(walDir); err != nil {
			return nil, err
		}
		r.runCycles(d, 0, warm)
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}

	t0 := time.Now()
	samples := r.runCycles(d, warm, total)
	res.wall = time.Since(t0).Seconds()
	for _, s := range samples {
		if s.class != clsSwap {
			res.reads++
		}
	}
	for _, c := range w.slots {
		res.classes[c] = summarize(samples, c)
	}
	var err error
	if res.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}

	for j := 0; j < w.restarts; j++ {
		t0 := time.Now()
		d.kill()
		if d, err = r.start(walDir); err != nil {
			return nil, err
		}
		r.probe(d) // a wrong answer counts against ok_ratio
		res.recovery = append(res.recovery, time.Since(t0).Seconds())
	}
	res.attempted, res.failed = r.attempted.Load(), r.failed.Load()
	return res, nil
}
