// Command nsserve is the skyline-as-a-service daemon: it loads one
// immutable graph snapshot and serves concurrent queries over HTTP
// until interrupted.
//
// Endpoints (all responses carry epoch/n/m plus truncated/cause anytime
// markers; see README "Serving"):
//
//	GET  /v1/skyline?algo=&timeout=&budget=&limit=
//	GET  /v1/centrality/group?k=&measure=
//	GET  /v1/clique?k=
//	GET  /v1/dominators?v=1,2,3
//	POST /v1/snapshot/swap        {"path": "...", "mmap": true} or {"ops": [...]}
//	GET  /v1/stats, /healthz
//
// Snapshots are epoch-managed: a swap builds the next snapshot off to
// the side and publishes it atomically; in-flight queries finish on the
// epoch they pinned, and the old snapshot's resources are released when
// the last of them drains.
//
// Usage:
//
//	nsserve -addr :8080 -input big.nsb2 -mmap
//	nsserve -addr 127.0.0.1:0 -dataset karate -addr-file /tmp/addr
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"neisky"
	"neisky/internal/obs"
	"neisky/internal/serve"
	"neisky/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address here once listening (for scripts)")
	input := flag.String("input", "", "graph file: binary snapshot or text edge list")
	useMmap := flag.Bool("mmap", false, "mmap binary snapshot inputs instead of heap-loading them")
	ds := flag.String("dataset", "", "built-in dataset name (alternative to -input)")
	scale := flag.Float64("scale", 1.0, "scale for synthetic datasets")
	defTimeout := flag.Duration("default-timeout", 2*time.Second, "deadline for queries that set none")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "cap on per-query ?timeout")
	maxBudget := flag.Int64("max-budget", 0, "cap on per-query ?budget work budgets (0 = uncapped)")
	walDir := flag.String("wal", "", "write-ahead-log directory: batch swaps become ack-after-durable, and a restart recovers the acknowledged state from here (an initialized directory outranks -input/-dataset)")
	walSync := flag.String("wal-sync", "always", "WAL fsync policy: always | interval | none")
	walSegBytes := flag.Int64("wal-segment-bytes", 0, "rotate WAL segments past this size (0 = 64 MiB default)")
	ckptEvery := flag.Duration("checkpoint-every", time.Minute, "background WAL checkpoint interval (0 disables; POST /v1/checkpoint always works)")
	maxInFlight := flag.Int("max-inflight", 0, "admission cap on concurrently served /v1 requests; past it requests get 429 + Retry-After (0 = unbounded)")
	shed := flag.Bool("shed", false, "with -max-inflight, clamp query deadlines to -shed-timeout once in-flight reaches 3/4 of the cap, trading complete answers for fast truncated ones")
	shedTimeout := flag.Duration("shed-timeout", 100*time.Millisecond, "shed-mode deadline clamp")
	tree := flag.Bool("tree", false,
		"prebuild the layered dominance index at startup (otherwise the first layers/explain query builds it)")
	debug := flag.Bool("debug", true, "mount /debug/{pprof,vars,metrics} on the serving mux")
	pprofAddr := flag.String("pprof", "",
		"additionally serve the debug surface on this separate address (e.g. localhost:6060)")
	flag.Parse()

	var snap *serve.Snapshot
	var err error
	// With -wal alone, the snapshot comes from recovery; otherwise a
	// graph source is mandatory.
	if *input != "" || *ds != "" || *walDir == "" {
		snap, err = loadSnapshot(*input, *ds, *scale, *useMmap)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nsserve:", err)
			os.Exit(1)
		}
	}

	// With -wal, durable state outranks boot-time configuration: an
	// initialized directory is recovered (checkpoint + acknowledged op
	// tail) and any -input/-dataset snapshot is discarded; a fresh
	// directory seeds itself from the snapshot.
	var walLog *wal.Log
	if *walDir != "" {
		var pol wal.SyncPolicy
		switch *walSync {
		case "always":
			pol = wal.SyncAlways
		case "interval":
			pol = wal.SyncInterval
		case "none":
			pol = wal.SyncNone
		default:
			fmt.Fprintf(os.Stderr, "nsserve: bad -wal-sync %q (want always|interval|none)\n", *walSync)
			os.Exit(1)
		}
		var st *serve.RecoveryStats
		snap, walLog, st, err = serve.OpenDurable(*walDir, snap,
			wal.Options{Sync: pol, SegmentBytes: *walSegBytes})
		if err != nil {
			fmt.Fprintln(os.Stderr, "nsserve:", err)
			os.Exit(1)
		}
		if st.Recovered {
			fmt.Printf("nsserve: recovered %s: checkpoint@%d + %d records (%d ops) through seq %d in %s (torn tail: %v)\n",
				*walDir, st.CheckpointSeq, st.Records, st.ReplayedOps, st.LastSeq,
				time.Duration(st.RecoverNs).Round(time.Millisecond), st.TornTail)
		} else {
			fmt.Printf("nsserve: initialized WAL %s from %s\n", *walDir, snap.Name)
		}
	}

	// Metrics are always on for a daemon: the per-endpoint counters
	// and timers cost little and feed /debug/metrics.
	obs.Enable()
	if *pprofAddr != "" {
		dbg, err := obs.StartDebugServer(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nsserve: pprof:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "nsserve: debug server on http://%s/debug/\n", dbg)
	}

	srv := neisky.NewServer(snap, serve.Options{
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		MaxBudget:      *maxBudget,
		EnableDebug:    *debug,
		MaxInFlight:    *maxInFlight,
		Shed:           *shed,
		ShedTimeout:    *shedTimeout,
	})
	if walLog != nil {
		srv.AttachWAL(walLog, *ckptEvery)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nsserve:", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "nsserve:", err)
			os.Exit(1)
		}
	}
	g := snap.Graph
	if *tree {
		t := snap.Tree(context.Background())
		fmt.Printf("nsserve: layered index prebuilt (%d layers)\n", t.NumLayers())
	}
	fmt.Printf("nsserve: serving %s (n=%d m=%d) on http://%s\n", snap.Name, g.N(), g.M(), bound)

	hsrv := srv.HTTPServer()
	errc := make(chan error, 1)
	go func() { errc <- hsrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "nsserve: shutting down")
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "nsserve:", err)
		os.Exit(1)
	}

	// Graceful drain: stop accepting, let in-flight queries finish,
	// then retire every epoch (Close blocks until refcounts drain,
	// which also unmaps any mmap-backed snapshots).
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hsrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "nsserve: shutdown:", err)
		os.Exit(1)
	}
	srv.Close()
	fmt.Println("nsserve: bye")
}

func loadSnapshot(input, ds string, scale float64, useMmap bool) (*serve.Snapshot, error) {
	switch {
	case input != "" && ds != "":
		return nil, fmt.Errorf("-input and -dataset are mutually exclusive")
	case input != "":
		return serve.SnapshotFromFile(input, useMmap)
	case ds != "":
		g, err := neisky.LoadDataset(ds, scale)
		if err != nil {
			return nil, err
		}
		return &serve.Snapshot{Graph: g, Name: ds}, nil
	default:
		return nil, fmt.Errorf("need -input or -dataset (try -dataset karate)")
	}
}
