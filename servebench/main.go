// Command servebench is the repository's serving benchmark. It builds
// a seeded ladder graph, runs the nsserve daemon (built from the same
// checkout) as a child process, drives it over loopback HTTP with
// fixed per-client closed-loop scripts, checks every answer against
// references computed in-process, and prints one JSON result line.
//
// Run it through run.sh from the repository root:
//
//	bash servebench/run.sh --workload engine-reads --seed 1 --seconds 15 --trace 0
//
// --trace 1 replaces the daemon run with the traced per-layer run;
// --steady N runs the workload N times on consecutive seeds and prints
// each metric's median, quartiles, range and spread against its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

var nan = math.NaN()

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the untraced run's metrics in print order. c1..c4 are
// per-class latency slots: each workload maps its endpoint classes to
// them (workload.slots), because every run must report every metric.
// The tails are p90: on sub-millisecond classes p99 moved by up to 6x
// between runs on a shared 2-vCPU host, while p90 kept within its bound.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"recovery_s", "s"},
	{"read_qps", "1/s"},
	{"ok_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
	{"c1_p50_ms", "ms"},
	{"c1_p90_ms", "ms"},
	{"c2_p50_ms", "ms"},
	{"c2_p90_ms", "ms"},
	{"c3_p50_ms", "ms"},
	{"c4_p50_ms", "ms"},
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: engine-reads | index-reads | durable-swaps")
	seed := flag.Uint64("seed", 1, "input seed: graph, scripts and swap batches derive from it")
	seconds := flag.Int("seconds", 15, "target length of the timed part; sets the script length")
	trace := flag.Int("trace", 0, "1 = traced per-layer run instead of the daemon run")
	steady := flag.Int("steady", 0, "run the workload this many times on seeds seed, seed+1, ... and report each metric's spread")
	benchFile := flag.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds (steadiness mode)")
	bin := flag.String("daemon", "", "nsserve binary built from this checkout")
	work := flag.String("work", "", "scratch directory for snapshots, WAL directories and daemon logs")
	flag.Parse()

	// The client must disturb the daemon as little as possible: its two
	// closed-loop goroutines need one processor, and rarer collections
	// of its small heap keep client pauses out of the timed requests.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(400)

	code := 1
	defer func() { killAll(); os.Exit(code) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	w, err := findWorkload(*name)
	if err == nil && (*bin == "" || *work == "") {
		err = fmt.Errorf("need -daemon and -work (run through servebench/run.sh)")
	}
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need --seconds >= 1 and --trace 0|1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		code = 2
		return
	}
	if *steady > 0 {
		code = steadiness(w, *seed, *seconds, *trace, *steady, *benchFile, *bin, *work)
		return
	}
	var out *output
	if *trace == 1 {
		out, err = runTraced(w, *seed, *seconds, *bin, *work)
	} else {
		out, err = runOnce(w, *seed, *seconds, *bin, *work)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return
	}
	fmt.Println(string(line))
	if out.Correct {
		code = 0
	}
}

// runOnce is the untraced run: it prints a per-class table, then
// returns every end-to-end metric.
func runOnce(w *workload, seed uint64, seconds int, bin, work string) (*output, error) {
	r, err := prepare(w, seed, seconds, bin, work)
	if err != nil {
		return nil, err
	}
	res, err := r.runUntraced(seconds)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d: n=%d m=%d clients=%d closed-loop, daemon GOMAXPROCS=%d, CPU %s\n",
		w.name, seed, r.ref.base.n, r.ref.base.m, w.clients, runtime.NumCPU(), cpuModel())
	if w.wal {
		fmt.Printf("WAL in %s on the checkout's filesystem, fsync always, no background checkpoints\n", r.dir)
	}
	fmt.Printf("setup_s runs %v  recovery_s runs %v  timed %.2fs  reads %d\n",
		fmtList(res.setup), fmtList(res.recovery), res.wall, res.reads)
	for i, c := range w.slots {
		cs := res.classes[c]
		fmt.Printf("c%d = %-10s n=%-6d p50=%.3fms p90=%s p99=%s\n", i+1, classNames[c], cs.count, cs.p50,
			fmtMs(cs.p90), fmtMs(cs.p99))
	}
	m := map[string]metric{
		"setup_s":     {median(res.setup), "s"},
		"recovery_s":  {median(res.recovery), "s"},
		"read_qps":    {float64(res.reads) / res.wall, "1/s"},
		"ok_ratio":    {float64(res.attempted-res.failed) / float64(res.attempted), "ratio"},
		"peak_rss_mb": {res.rssMB, "MB"},
	}
	for i, c := range w.slots {
		cs := res.classes[c]
		m[fmt.Sprintf("c%d_p50_ms", i+1)] = metric{cs.p50, "ms"}
		if i < 2 {
			m[fmt.Sprintf("c%d_p90_ms", i+1)] = metric{cs.p90, "ms"}
		}
	}
	for _, e := range endToEnd {
		if v, ok := m[e.name]; !ok || math.IsNaN(v.Value) {
			return nil, fmt.Errorf("metric %s has too few samples; raise the workload's minCycles", e.name)
		}
	}
	return &output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: m}, nil
}

func fmtMs(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.3fms", v)
}

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func sortedKeys(m map[string]metric) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
