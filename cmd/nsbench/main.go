// Command nsbench regenerates the paper's tables and figures on the
// stand-in datasets.
//
// Usage:
//
//	nsbench -exp all            # every experiment, paper-scale grids
//	nsbench -exp fig3           # one experiment
//	nsbench -exp fig7 -quick    # smaller parameter grid
//	nsbench -exp fig10 -scale 0.5
//	nsbench -json out.json       # machine-readable runtime/alloc rows
//	nsbench -json out.json -metrics   # + per-stage timer/counter blocks
//	nsbench -exp fig3 -metrics        # print the obs snapshot after a run
//	nsbench -list
//
// Snapshot modes (see nsgen -o):
//
//	nsbench -input big.nsb2 -mmap -json rows.json   # bench one snapshot file
//	nsbench -scalebench -json BENCH_3.json           # full million-scale pipeline
//	nsbench -scalebench -scale-n 500000 -json rows.json
//	nsbench -shardbench -json BENCH_5.json           # sharded-engine sweep (BENCH_5)
//	nsbench -shardbench -shards 1,4,16,64 -dir /tmp/snaps -json BENCH_5.json
//	nsbench -treebench -json BENCH_6.json            # layered index vs recompute (BENCH_6)
//	nsbench -treebench -scale-n 500000 -json BENCH_6.json
//	nsbench -gatebench -json gate.json               # small-n CI gate rows (scripts/bench_compare.go)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"neisky/internal/bench"
	"neisky/internal/cliutil"
	"neisky/internal/obs"
)

// parseShardCounts parses the -shards sweep ("1,4,16,64"); empty means
// the benchmark default.
func parseShardCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	counts := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -shards entry %q (want positive integers)", p)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or \"all\"")
	scale := flag.Float64("scale", 1.0, "dataset scale multiplier")
	quick := flag.Bool("quick", false, "shrink parameter grids for a fast smoke run")
	seed := flag.Uint64("seed", 0, "override sampling seed (0 = default)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonOut := flag.String("json", "", "write machine-readable benchmark rows to this file and exit")
	workers := flag.Int("workers", 0, "parallel workers for sharded contenders (0 = GOMAXPROCS)")
	metrics := flag.Bool("metrics", false,
		"record per-stage timers/counters: folded into -json rows, else printed after the run")
	timeout := flag.Duration("timeout", 0,
		"wall-clock budget; on expiry (or ^C) the sweep stops and completed rows/metrics still flush (0 = none)")
	input := flag.String("input", "", "benchmark this graph file (snapshot or edge list) instead of the built-in datasets")
	useMmap := flag.Bool("mmap", false, "open -input snapshots via mmap instead of heap-loading")
	scalebench := flag.Bool("scalebench", false, "run the million-scale generate→convert→mmap→skyline pipeline (needs -json)")
	scaleN := flag.Int("scale-n", 0, "scalebench/shardbench vertex count (0 = 2,000,000)")
	scaleM := flag.Int("scale-m", 0, "scalebench/shardbench edge target (0 = 4×n)")
	dir := flag.String("dir", "", "scalebench/shardbench snapshot/spill directory (empty = a removed temp dir)")
	shardbench := flag.Bool("shardbench", false, "run the sharded-engine BENCH_5 sweep on a million-scale snapshot (needs -json)")
	shards := flag.String("shards", "", "shardbench shard-count sweep, comma-separated (empty = 1,4,16,64)")
	shardWorkers := flag.Int("shard-workers", 0, "shardbench worker pool for the sharded rows (0 = 1)")
	treebench := flag.Bool("treebench", false, "run the layered-index BENCH_6 grid: index-assisted top-k/subset/maintenance vs per-query recompute (needs -json)")
	gatebench := flag.Bool("gatebench", false, "run the small-n bench-gate rows for scripts/bench_compare (needs -json)")
	walbench := flag.Bool("walbench", false, "run the durability/overload BENCH_7 sweep: WAL fsync policies, crash recovery, checkpoint cost, and a capped-admission overload run (needs -json)")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-10s %s\n", e.ID, e.Desc)
		}
		return
	}

	ctx, stop := cliutil.Context(*timeout)
	defer stop()
	cfg := bench.Config{Out: os.Stdout, Scale: *scale, Quick: *quick, Seed: *seed,
		Workers: *workers, Metrics: *metrics, Ctx: ctx}
	if *scalebench || *shardbench || *treebench || *gatebench || *walbench || *input != "" {
		if *jsonOut == "" {
			fmt.Fprintln(os.Stderr, "nsbench: -scalebench, -shardbench, -treebench, -gatebench, -walbench and -input need -json <file>")
			os.Exit(1)
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *shardbench {
			counts, perr := parseShardCounts(*shards)
			if perr != nil {
				fmt.Fprintln(os.Stderr, "nsbench:", perr)
				os.Exit(1)
			}
			hcfg := bench.ShardConfig{N: *scaleN, M: *scaleM, Seed: *seed,
				ShardWorkers: *shardWorkers, ShardCounts: counts, Dir: *dir, Out: os.Stderr}
			if *quick {
				hcfg.Rounds = 1
			}
			err = bench.RunShardJSON(f, hcfg)
		} else if *treebench {
			tcfg := bench.TreeConfig{N: *scaleN, M: *scaleM, Seed: *seed,
				Workers: *workers, Out: os.Stderr}
			if *quick {
				tcfg.Rounds = 1
			}
			err = bench.RunTreeJSON(f, tcfg)
		} else if *gatebench {
			err = bench.RunGateJSON(f, bench.GateConfig{Seed: *seed, Out: os.Stderr})
		} else if *walbench {
			wcfg := bench.WALConfig{N: *scaleN, M: *scaleM, Seed: *seed,
				Dir: *dir, Out: os.Stderr}
			if *quick {
				wcfg.N = 2_000
				wcfg.Batches = 200
				wcfg.Queries = 120
			}
			err = bench.RunWALJSON(f, wcfg)
		} else if *scalebench {
			scfg := bench.ScaleConfig{N: *scaleN, M: *scaleM, Seed: *seed,
				Workers: *workers, Dir: *dir, Out: os.Stderr}
			if *quick {
				scfg.Iters = 1
			}
			err = bench.RunScaleJSON(f, scfg)
		} else {
			err = bench.RunFileBenchJSON(f, cfg, *input, *useMmap)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "nsbench:", err)
			os.Exit(1)
		}
		return
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		err = bench.RunBenchJSON(f, cfg)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if cause := cliutil.Cause(ctx); cause != "" {
			fmt.Fprintf(os.Stderr, "nsbench: cancelled (%s); completed rows were flushed to %s\n",
				cause, *jsonOut)
		}
		return
	}

	if *metrics {
		obs.Enable()
	}
	if err := bench.Run(*exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *metrics {
		// Flushed even when the run above was cut short by -timeout/^C.
		fmt.Println("== stage metrics ==")
		fmt.Print(obs.Get().Snapshot())
	}
	if cause := cliutil.Cause(ctx); cause != "" {
		fmt.Printf("nsbench: cancelled (%s); output above is partial\n", cause)
	}
}
