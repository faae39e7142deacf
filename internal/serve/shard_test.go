package serve

import (
	"fmt"
	"net/http"
	"testing"

	"neisky/internal/core"
	"neisky/internal/gen"
)

// TestSkylineShardedMatchesSerial drives ?shards through the HTTP
// surface on a graph big enough (n + 2m ≥ the core parallel cutoff)
// that the real sharded engine runs rather than the small-graph serial
// fallback, and checks the answer against the serial engine.
func TestSkylineShardedMatchesSerial(t *testing.T) {
	g := gen.PowerLaw(8000, 30000, 2.5, 13)
	_, ts := newTestServer(t, g, Options{})
	want := core.FilterRefineSky(g, core.Options{}).Skyline

	for _, shards := range []int{1, 3, 8, 64} {
		for _, workers := range []string{"", "&workers=2"} {
			path := fmt.Sprintf("/v1/skyline?algo=filterrefine&shards=%d%s", shards, workers)
			code, body := get(t, ts, path)
			if code != http.StatusOK {
				t.Fatalf("shards=%d%s: status %d: %v", shards, workers, code, body)
			}
			if got := ids(body["skyline"]); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("shards=%d%s: skyline %v, want %v", shards, workers, got, want)
			}
			if body["algo"] != "ShardedFilterRefineSky" {
				t.Fatalf("shards=%d: algo %v", shards, body["algo"])
			}
			if int(body["shards"].(float64)) != shards {
				t.Fatalf("shards field %v, want %d", body["shards"], shards)
			}
			if body["workers"] == nil || int(body["workers"].(float64)) < 1 {
				t.Fatalf("workers field missing or non-positive: %v", body["workers"])
			}
			if body["truncated"] != false {
				t.Fatalf("shards=%d: unexpected truncation: %v", shards, body)
			}
		}
	}
}

// TestSkylineWorkersSelectsParallelEngine pins that ?workers alone
// runs the sharded engine — the one parallel engine — with the worker
// count echoed and the serial engine's answer.
func TestSkylineWorkersSelectsParallelEngine(t *testing.T) {
	g := gen.PowerLaw(8000, 30000, 2.5, 13)
	_, ts := newTestServer(t, g, Options{MaxWorkers: 8})
	want := core.FilterRefineSky(g, core.Options{}).Skyline

	code, body := get(t, ts, "/v1/skyline?workers=4")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["algo"] != "ShardedFilterRefineSky" {
		t.Fatalf("algo %v, want ShardedFilterRefineSky", body["algo"])
	}
	if int(body["workers"].(float64)) != 4 {
		t.Fatalf("workers %v, want 4", body["workers"])
	}
	if got := ids(body["skyline"]); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("skyline %v, want %v", got, want)
	}
}

func TestSkylineWorkersClampedToMaxWorkers(t *testing.T) {
	g := testGraph()
	_, ts := newTestServer(t, g, Options{MaxWorkers: 2})

	code, body := get(t, ts, "/v1/skyline?workers=64")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if int(body["workers"].(float64)) != 2 {
		t.Fatalf("workers %v, want clamped 2", body["workers"])
	}

	// A sharded query with no ?workers reports the server default.
	code, body = get(t, ts, "/v1/skyline?shards=4")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if int(body["workers"].(float64)) != 2 {
		t.Fatalf("sharded default workers %v, want MaxWorkers 2", body["workers"])
	}
}

func TestSkylineShardsRejectedOffFilterRefine(t *testing.T) {
	g := testGraph()
	_, ts := newTestServer(t, g, Options{})

	for _, path := range []string{
		"/v1/skyline?algo=base&shards=4",
		"/v1/skyline?algo=cset&workers=2",
		"/v1/skyline?shards=0",
		"/v1/skyline?shards=nope",
		"/v1/skyline?workers=-1",
		"/v1/centrality/group?k=2&workers=zero",
	} {
		code, body := get(t, ts, path)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (want 400): %v", path, code, body)
		}
	}
}

func TestCentralityWorkersParam(t *testing.T) {
	g := testGraph()
	_, ts := newTestServer(t, g, Options{MaxWorkers: 8})

	code, serial := get(t, ts, "/v1/centrality/group?k=2")
	if code != http.StatusOK {
		t.Fatalf("serial status %d", code)
	}
	code, par := get(t, ts, "/v1/centrality/group?k=2&workers=3")
	if code != http.StatusOK {
		t.Fatalf("workers status %d: %v", code, par)
	}
	if fmt.Sprint(ids(par["group"])) != fmt.Sprint(ids(serial["group"])) {
		t.Fatalf("group with workers %v, serial %v", par["group"], serial["group"])
	}
	if int(par["workers"].(float64)) != 3 {
		t.Fatalf("workers field %v, want 3", par["workers"])
	}
}
