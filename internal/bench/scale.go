package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"neisky/internal/core"
	"neisky/internal/gen"
	"neisky/internal/graph"
)

// The million-scale pipeline benchmark: generate a shuffled Chung–Lu
// graph straight through the bounded-memory converter (the graph never
// exists in RAM), snapshot it twice — original ids and degree-descending
// relabeled — then measure skyline runs over the mmap'd snapshots. The
// relabel-on vs relabel-off rows isolate the locality win; a heap-loaded
// row pins mmap-vs-heap parity on identical work.

// ScaleConfig parameterizes RunScaleJSON.
type ScaleConfig struct {
	N    int     // vertices (default 2,000,000)
	M    int     // target edges (default 4×N, avg degree ≈ 8)
	Beta float64 // Chung–Lu exponent (default 2.5)
	Seed uint64  // generator + shuffle seed (default 1)

	// Dir holds the two snapshots (and the converter's spill runs). If
	// empty a temporary directory is used and removed afterwards.
	Dir string

	// Workers for the sharded skyline row (default 8, the JSON
	// benchmark's convention).
	Workers int

	// Iters timed runs per row, best-of (default 3).
	Iters int

	Out io.Writer // progress log; nil silences it
}

func (c *ScaleConfig) fill() {
	if c.N <= 0 {
		c.N = 2_000_000
	}
	if c.M <= 0 {
		c.M = 4 * c.N
	}
	if c.Beta == 0 {
		c.Beta = 2.5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Iters <= 0 {
		c.Iters = 3
	}
}

func (c *ScaleConfig) printf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

// RunScaleJSON runs the full scale pipeline and writes the measurement
// rows as a JSON array to w. Row set, all on the same generated graph:
//
//	Convert / Convert-relabel   — streaming conversion wall time (ConvertNs)
//	FilterRefineSky             — mmap, relabel off | on; heap, relabel off
//	ShardedFilterRefineSky-wW   — mmap, relabel on
//
// The heap and mmap relabel-off skylines are verified identical, and
// the relabel-on skyline is verified to have the same size (its ids
// live in the permuted space).
func RunScaleJSON(w io.Writer, cfg ScaleConfig) error {
	cfg.fill()
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "nsscale-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	dataset := fmt.Sprintf("chunglu-%d-%d", cfg.N, cfg.M)
	plain := filepath.Join(dir, "scale.nsb2")
	relabeled := filepath.Join(dir, "scale-rel.nsb2")

	// Stage 1: generate → convert, original (shuffled) ids. The shuffle
	// matters: Chung–Lu hands out ids in weight order, which is already
	// the relabeled layout — unshuffled input would hide the locality
	// win behind an accidental head start.
	src := func(emit func(u, v int32) error) error {
		return gen.StreamChungLu(cfg.N, cfg.M, cfg.Beta, cfg.Seed,
			gen.ShuffledLabels(cfg.N, cfg.Seed, emit))
	}
	cfg.printf("scale: generating %s (shuffled ids) -> %s\n", dataset, plain)
	start := time.Now()
	stats, err := graph.ConvertEdges(src, plain, graph.ConvertOptions{N: cfg.N})
	if err != nil {
		return err
	}
	convertNs := time.Since(start).Nanoseconds()
	cfg.printf("scale: converted n=%d m=%d in %s (%d spill runs, max %d pairs resident)\n",
		stats.N, stats.M, time.Duration(convertNs).Round(time.Millisecond), stats.Runs, stats.MaxBuffered)

	// Stage 2: re-encode with degree-descending relabeling (snapshot →
	// snapshot, still bounded memory via the mmap reader).
	start = time.Now()
	relStats, err := graph.ConvertBinaryFile(plain, relabeled, graph.ConvertOptions{Relabel: true})
	if err != nil {
		return err
	}
	relConvertNs := time.Since(start).Nanoseconds()
	cfg.printf("scale: relabeled snapshot in %s\n", time.Duration(relConvertNs).Round(time.Millisecond))

	rows := []BenchRow{
		{Algo: "Convert", Dataset: dataset, N: stats.N, M: stats.M, Relabel: "off", ConvertNs: convertNs},
		{Algo: "Convert-relabel", Dataset: dataset, N: relStats.N, M: relStats.M, Relabel: "on", ConvertNs: relConvertNs},
	}

	// Stage 3: skyline rows over the snapshots.
	var plainSky, relSky, heapSky int
	row, err := snapshotRow(cfg, dataset, plain, "mmap", "off", 1, &plainSky)
	if err != nil {
		return flushRows(w, rows, err)
	}
	rows = append(rows, row)
	row, err = snapshotRow(cfg, dataset, relabeled, "mmap", "on", 1, &relSky)
	if err != nil {
		return flushRows(w, rows, err)
	}
	rows = append(rows, row)
	row, err = snapshotRow(cfg, dataset, relabeled, "mmap", "on", cfg.Workers, nil)
	if err != nil {
		return flushRows(w, rows, err)
	}
	rows = append(rows, row)
	row, err = snapshotRow(cfg, dataset, plain, "heap", "off", 1, &heapSky)
	if err != nil {
		return flushRows(w, rows, err)
	}
	rows = append(rows, row)

	if plainSky != heapSky {
		return flushRows(w, rows, fmt.Errorf("bench: mmap skyline |R|=%d, heap |R|=%d on the same snapshot", plainSky, heapSky))
	}
	if plainSky != relSky {
		return flushRows(w, rows, fmt.Errorf("bench: relabeled skyline |R|=%d differs from original %d", relSky, plainSky))
	}
	cfg.printf("scale: |R|=%d consistent across heap/mmap/relabeled runs\n", plainSky)
	return flushRows(w, rows, nil)
}

// snapshotRow measures one skyline configuration against a snapshot
// file, reopening nothing between iterations (the open cost is its own
// row via ConvertNs; here we measure the compute).
func snapshotRow(cfg ScaleConfig, dataset, path, source, relabel string, workers int, skySize *int) (BenchRow, error) {
	g, closer, err := loadSnapshot(path, source == "mmap")
	if err != nil {
		return BenchRow{}, err
	}
	if closer != nil {
		defer closer.Close()
	}
	run := func() *core.Result {
		if workers > 1 {
			return core.ShardedFilterRefineSky(g, core.Options{}, core.ShardOptions{Workers: workers})
		}
		return core.FilterRefineSky(g, core.Options{})
	}
	algo := "FilterRefineSky"
	if workers > 1 {
		algo = fmt.Sprintf("ShardedFilterRefineSky-w%d", workers)
	}
	cfg.printf("scale: %s source=%s relabel=%s...\n", algo, source, relabel)
	res := run() // warm-up; also builds the lazy hub index once
	if skySize != nil {
		*skySize = len(res.Skyline)
	}
	best := int64(-1)
	for i := 0; i < cfg.Iters; i++ {
		d := timed(func() { run() }).Nanoseconds()
		if best < 0 || d < best {
			best = d
		}
	}
	bytes := allocated(func() { run() })
	runtime.GC()
	return BenchRow{
		Algo: algo, Dataset: dataset, N: g.N(), M: g.M(),
		NsPerOp: best, BytesPerOp: bytes,
		Source: source, Relabel: relabel,
	}, nil
}

func loadSnapshot(path string, useMmap bool) (*graph.Graph, *graph.Mapped, error) {
	if useMmap {
		mg, err := graph.OpenMmap(path)
		if err != nil {
			return nil, nil, err
		}
		return mg.Graph, mg, nil
	}
	g, err := graph.LoadBinaryFile(path)
	return g, nil, err
}

// RunFileBenchJSON benchmarks the skyline contenders against an
// existing snapshot or edge-list file (nsbench -input), writing rows in
// the same shape as RunBenchJSON.
func RunFileBenchJSON(w io.Writer, cfg Config, path string, useMmap bool) error {
	cfg.fill()
	iters := 3
	if cfg.Quick {
		iters = 1
	}
	var g *graph.Graph
	var closer *graph.Mapped
	var err error
	source := "heap"
	if graph.IsBinarySnapshot(path) {
		g, closer, err = loadSnapshot(path, useMmap)
		if useMmap {
			source = "mmap"
		}
	} else {
		var f *os.File
		if f, err = os.Open(path); err == nil {
			g, err = graph.ReadEdgeList(f)
			f.Close()
		}
	}
	if err != nil {
		return err
	}
	if closer != nil {
		defer closer.Close()
	}
	name := filepath.Base(path)
	var rows []BenchRow
	for _, a := range jsonAlgos {
		if cfg.stopped() {
			break
		}
		a.run(cfg.Ctx, g) // warm-up
		best := int64(-1)
		for i := 0; i < iters; i++ {
			d := timed(func() { a.run(cfg.Ctx, g) }).Nanoseconds()
			if best < 0 || d < best {
				best = d
			}
		}
		bytes := allocated(func() { a.run(cfg.Ctx, g) })
		if cfg.stopped() {
			break
		}
		rows = append(rows, BenchRow{
			Algo: a.name, Dataset: name, N: g.N(), M: g.M(),
			NsPerOp: best, BytesPerOp: bytes, Source: source,
		})
		runtime.GC()
	}
	return flushRows(w, rows, nil)
}
