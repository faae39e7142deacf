#!/bin/sh
# Repo gate: gofmt, vet, build, full tests, vet + test of the servebench
# module, race-test the hot packages, then smoke the Fig 3 benchmarks
# (including the large hub-bitmap variants) once. CI runs this via
# `make ci`.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
fmt_out="$(gofmt -l .)"
if [ -n "$fmt_out" ]; then
	echo "FAIL: the following files are not gofmt-clean:" >&2
	echo "$fmt_out" >&2
	echo "run: gofmt -w ." >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test (full) =="
go test ./...

# servebench is a module of its own, so the root ./... never builds it,
# yet it imports internal packages an API change can break.
echo "== servebench module (vet + test) =="
(cd servebench && go vet ./... && go test ./...)

echo "== go test -race (hot packages + cancellation/fault-injection + epoch swaps) =="
go test -race ./internal/core/... ./internal/graph/... ./internal/bitset/... \
	./internal/bfs/... ./internal/centrality/... ./internal/dynsky/... \
	./internal/clique/... ./internal/runctl/... ./internal/serve/... \
	./internal/sketch/... ./internal/skytree/... ./internal/wal/...
go test -race -run 'Cancel|Ctx|Apply' ./internal/mis/ ./internal/betweenness/

echo "== bench smoke (Fig3, 1 iteration) =="
go test -run '^$' -bench 'Fig3' -benchtime 1x .

echo "== bench smoke (MS-BFS vs scalar sweep, 1 iteration) =="
go test -run '^$' -bench 'MSBFS' -benchtime 1x ./internal/bfs/

echo "== scale pipeline smoke (stream-convert -> mmap -> skyline) =="
scaledir="$(mktemp -d)"
serve_pid=""
cleanup() {
	if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2>/dev/null; then
		kill "$serve_pid" 2>/dev/null || true
		wait "$serve_pid" 2>/dev/null || true
	fi
	rm -rf "$scaledir"
}
trap cleanup EXIT
go run ./cmd/nsgen -model chunglu -n 5000 -m 20000 -shuffle -relabel -o "$scaledir/smoke.nsb2"
go run ./cmd/nsky -input "$scaledir/smoke.nsb2" -mmap

echo "== serving smoke (nsserve daemon + mixed nsload traffic + mid-stream swaps + SIGINT) =="
go build -o "$scaledir/nsserve" ./cmd/nsserve
go build -o "$scaledir/nsload" ./cmd/nsload
"$scaledir/nsserve" -input "$scaledir/smoke.nsb2" -mmap \
	-addr 127.0.0.1:0 -addr-file "$scaledir/addr" &
serve_pid=$!
i=0
while [ ! -s "$scaledir/addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "FAIL: nsserve did not come up" >&2
		exit 1
	fi
	kill -0 "$serve_pid" 2>/dev/null || { echo "FAIL: nsserve exited early" >&2; exit 1; }
	sleep 0.1
done
"$scaledir/nsload" -addr "http://$(cat "$scaledir/addr")" -n 400 -workers 8 -swaps 2 -seed 1
kill -INT "$serve_pid"
wait "$serve_pid" || { echo "FAIL: nsserve did not shut down cleanly on SIGINT" >&2; exit 1; }
serve_pid=""

echo "== crash-recovery smoke (nsserve -wal, kill -9 mid-stream, restart, recovered state) =="
waldir="$scaledir/wal"
rm -f "$scaledir/addr"
"$scaledir/nsserve" -input "$scaledir/smoke.nsb2" -mmap -wal "$waldir" \
	-addr 127.0.0.1:0 -addr-file "$scaledir/addr" >"$scaledir/wal-boot.log" &
serve_pid=$!
i=0
while [ ! -s "$scaledir/addr" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "FAIL: durable nsserve did not come up" >&2; exit 1; }
	kill -0 "$serve_pid" 2>/dev/null || { echo "FAIL: durable nsserve exited early" >&2; exit 1; }
	sleep 0.1
done
base="http://$(cat "$scaledir/addr")"
# Ten acknowledged swaps: with -wal-sync always (the default), every
# 200 below is a durability promise the recovery must keep.
i=0
while [ "$i" -lt 10 ]; do
	i=$((i + 1))
	curl -sf -X POST "$base/v1/snapshot/swap" \
		-d "{\"ops\":[{\"add\":true,\"u\":$i,\"v\":$((i + 1000))}]}" >/dev/null \
		|| { echo "FAIL: acked swap $i failed" >&2; exit 1; }
done
# Keep a swap stream in flight and kill -9 mid-stream: the tail may
# tear, but never the ten acknowledged batches above.
( j=0; while [ "$j" -lt 1000 ]; do j=$((j + 1)); \
	curl -s -X POST "$base/v1/snapshot/swap" \
		-d "{\"ops\":[{\"add\":true,\"u\":$j,\"v\":$((j + 2000))}]}" >/dev/null 2>&1 || exit 0; \
  done ) &
stream_pid=$!
sleep 0.4
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
wait "$stream_pid" 2>/dev/null || true

# recover_stats boots from the WAL alone and writes the recovered
# fingerprint (edge count, last sequence, skyline size) to $1.
recover_stats() {
	rm -f "$scaledir/addr"
	"$scaledir/nsserve" -wal "$waldir" -addr 127.0.0.1:0 -addr-file "$scaledir/addr" \
		>"$scaledir/wal-recover.log" &
	serve_pid=$!
	i=0
	while [ ! -s "$scaledir/addr" ]; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "FAIL: recovery boot did not come up" >&2; exit 1; }
		kill -0 "$serve_pid" 2>/dev/null || { echo "FAIL: recovery boot exited early (see $scaledir/wal-recover.log)" >&2; cat "$scaledir/wal-recover.log" >&2; exit 1; }
		sleep 0.1
	done
	grep -q "nsserve: recovered" "$scaledir/wal-recover.log" \
		|| { echo "FAIL: restart did not report a recovery" >&2; exit 1; }
	{
		curl -sf "http://$(cat "$scaledir/addr")/v1/stats" \
			| tr -d ' \n' | grep -o '"m":[0-9]*\|"wal_last_seq":[0-9]*' | sort | tr '\n' ';'
		curl -sf "http://$(cat "$scaledir/addr")/v1/skyline?limit=1" \
			| tr -d ' \n' | grep -o '"skyline_size":[0-9]*'
	} >"$1"
}

recover_stats "$scaledir/recover1"
seq1="$(grep -o 'wal_last_seq":[0-9]*' "$scaledir/recover1" | grep -o '[0-9]*')"
[ "$seq1" -ge 10 ] || { echo "FAIL: recovered through seq $seq1, want >= 10 acked swaps" >&2; exit 1; }
# Crash the recovered daemon too (no new writes): a second recovery
# must land on the identical state — op count and skyline alike.
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
recover_stats "$scaledir/recover2"
cmp -s "$scaledir/recover1" "$scaledir/recover2" \
	|| { echo "FAIL: repeated recovery diverged: '$(cat "$scaledir/recover1")' vs '$(cat "$scaledir/recover2")'" >&2; exit 1; }
echo "crash recovery: acked prefix ($seq1 batches) and skyline stable across restarts"
kill -INT "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

echo "OK"
