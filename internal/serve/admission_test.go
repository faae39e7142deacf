package serve

import (
	"io"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"neisky/internal/obs"
)

// admitN claims n in-flight slots on srv, failing the test if any is
// rejected, and returns their release funcs.
func admitN(t *testing.T, srv *Server, n int) []func() {
	t.Helper()
	releases := make([]func(), 0, n)
	for i := 0; i < n; i++ {
		w := httptest.NewRecorder()
		r := httptest.NewRequest("GET", "/v1/skyline", nil)
		release, _, ok := srv.admit("skyline", w, r)
		if !ok {
			t.Fatalf("admit %d/%d rejected (code %d)", i+1, n, w.Code)
		}
		releases = append(releases, release)
	}
	return releases
}

// TestAdmissionRejectsAtCap pins the gate contract: requests past
// MaxInFlight get an immediate 429 with Retry-After, counted as
// rejected (per endpoint and aggregate), never as errors; releasing a
// slot readmits.
func TestAdmissionRejectsAtCap(t *testing.T) {
	old := obs.Swap(obs.New())
	defer obs.Swap(old)

	srv := New(&Snapshot{Graph: testGraph(), Name: "t"}, Options{MaxInFlight: 2})
	defer srv.Close()

	releases := admitN(t, srv, 2)
	if got := srv.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}

	w := httptest.NewRecorder()
	r := httptest.NewRequest("GET", "/v1/skyline", nil)
	if _, _, ok := srv.admit("skyline", w, r); ok {
		t.Fatal("admit over the cap succeeded")
	}
	if w.Code != 429 {
		t.Fatalf("over-cap status = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want %q", w.Header().Get("Retry-After"), "1")
	}
	m := obs.Get().Metrics()
	if m["serve.skyline.rejected"] != 1 || m["serve.admission.rejected"] != 1 {
		t.Fatalf("rejected counters = %d/%d, want 1/1",
			m["serve.skyline.rejected"], m["serve.admission.rejected"])
	}
	if m["serve.skyline.errors"] != 0 {
		t.Fatalf("a rejection counted as an endpoint error")
	}

	// A freed slot readmits immediately.
	releases[0]()
	release, _, ok := srv.admit("skyline", httptest.NewRecorder(), r)
	if !ok {
		t.Fatal("admit after release rejected")
	}
	release()
	releases[1]()
	if got := srv.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after all releases, want 0", got)
	}
}

// TestAdmissionShedBand verifies shed-mode deadline clamping: at or
// above 3/4 of the cap, admitted requests carry the shed deadline and
// the shed counters tick; below the band they do not.
func TestAdmissionShedBand(t *testing.T) {
	old := obs.Swap(obs.New())
	defer obs.Swap(old)

	srv := New(&Snapshot{Graph: testGraph(), Name: "t"}, Options{
		MaxInFlight: 4, Shed: true, ShedTimeout: 25 * time.Millisecond,
	})
	defer srv.Close()

	// Slots 1 and 2 are below shedAt (3): no clamp.
	var releases []func()
	for i := 0; i < 2; i++ {
		w := httptest.NewRecorder()
		r := httptest.NewRequest("GET", "/v1/skyline", nil)
		release, req, ok := srv.admit("skyline", w, r)
		if !ok {
			t.Fatalf("admit %d rejected", i+1)
		}
		if d := shedDeadline(req.Context()); d != 0 {
			t.Fatalf("slot %d carries shed deadline %v below the band", i+1, d)
		}
		releases = append(releases, release)
	}
	// Slot 3 enters the shed band.
	w := httptest.NewRecorder()
	r := httptest.NewRequest("GET", "/v1/skyline", nil)
	release, req, ok := srv.admit("skyline", w, r)
	if !ok {
		t.Fatal("admit in shed band rejected")
	}
	releases = append(releases, release)
	if d := shedDeadline(req.Context()); d != 25*time.Millisecond {
		t.Fatalf("shed deadline = %v, want 25ms", d)
	}
	m := obs.Get().Metrics()
	if m["serve.skyline.shed"] != 1 || m["serve.admission.shed"] != 1 {
		t.Fatalf("shed counters = %d/%d, want 1/1",
			m["serve.skyline.shed"], m["serve.admission.shed"])
	}
	for _, rel := range releases {
		rel()
	}
}

// TestAdmissionRecoveredEpisode checks the overload-episode accounting:
// a rejection opens an episode, and draining back under the shed
// threshold closes it — bumping serve.admission.recovered exactly once
// no matter how many rejections the episode contained.
func TestAdmissionRecoveredEpisode(t *testing.T) {
	old := obs.Swap(obs.New())
	defer obs.Swap(old)

	srv := New(&Snapshot{Graph: testGraph(), Name: "t"}, Options{MaxInFlight: 4})
	defer srv.Close()

	releases := admitN(t, srv, 4)
	// Two rejections inside one episode.
	for i := 0; i < 2; i++ {
		if _, _, ok := srv.admit("skyline", httptest.NewRecorder(),
			httptest.NewRequest("GET", "/v1/skyline", nil)); ok {
			t.Fatal("admit over the cap succeeded")
		}
	}
	for _, rel := range releases {
		rel()
	}
	m := obs.Get().Metrics()
	if m["serve.admission.recovered"] != 1 {
		t.Fatalf("recovered = %d after one episode, want 1", m["serve.admission.recovered"])
	}
	if m["serve.admission.rejected"] != 2 {
		t.Fatalf("rejected = %d, want 2", m["serve.admission.rejected"])
	}

	// A second episode counts again.
	releases = admitN(t, srv, 4)
	if _, _, ok := srv.admit("skyline", httptest.NewRecorder(),
		httptest.NewRequest("GET", "/v1/skyline", nil)); ok {
		t.Fatal("admit over the cap succeeded")
	}
	for _, rel := range releases {
		rel()
	}
	if got := obs.Get().Metrics()["serve.admission.recovered"]; got != 2 {
		t.Fatalf("recovered = %d after two episodes, want 2", got)
	}
}

// TestShedModeTruncatesEndToEnd drives a real query through a server
// whose shed band covers every request (MaxInFlight 1 → shedAt 1) with
// a vanishingly small shed timeout: the query must still answer 200,
// flagged truncated — a fast sound answer instead of a queued complete
// one.
func TestShedModeTruncatesEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, bigGraph(), Options{
		MaxInFlight: 1, Shed: true, ShedTimeout: time.Nanosecond,
	})
	_ = srv
	code, body := get(t, ts, "/v1/skyline")
	if code != 200 {
		t.Fatalf("shed-mode skyline: %d %v", code, body)
	}
	if body["truncated"] != true {
		t.Fatalf("shed-mode skyline not truncated: %v", body)
	}
}

// TestUnboundedAdmissionNoop pins that MaxInFlight=0 disables the gate.
func TestUnboundedAdmissionNoop(t *testing.T) {
	srv := New(&Snapshot{Graph: testGraph(), Name: "t"}, Options{})
	defer srv.Close()
	for i := 0; i < 64; i++ {
		release, _, ok := srv.admit("skyline", httptest.NewRecorder(),
			httptest.NewRequest("GET", "/v1/skyline", nil))
		if !ok {
			t.Fatal("unbounded gate rejected")
		}
		release()
	}
	if got := srv.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d on unbounded gate, want 0", got)
	}
}

// TestStatsReportsInFlight checks /v1/stats surfaces the gate state
// while requests are in flight.
func TestStatsReportsInFlight(t *testing.T) {
	srv, ts := newTestServer(t, testGraph(), Options{MaxInFlight: 8})
	releases := admitN(t, srv, 2)
	code, body := get(t, ts, "/v1/stats")
	for _, rel := range releases {
		rel()
	}
	if code != 200 {
		t.Fatalf("stats: %d %v", code, body)
	}
	if got, ok := body["in_flight"].(float64); !ok || got != 2 {
		t.Fatalf("stats in_flight = %v, want 2", body["in_flight"])
	}
}

// TestSlowHeaderClientDisconnected pins the connection limits that keep
// slow clients from bypassing admission: a raw TCP client that sends
// half a request line and stalls is disconnected once the header
// timeout passes, without ever reaching a handler.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	srv := New(&Snapshot{Graph: testGraph(), Name: "t"}, Options{MaxInFlight: 1})
	defer srv.Close()
	const headerTimeout = 200 * time.Millisecond
	hs := newHTTPServer(srv.Handler(), headerTimeout)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /v1/skyline HT")); err != nil {
		t.Fatal(err)
	}
	// The server closes the connection (possibly after a 408 status
	// line); a read deadline far past the header timeout catches a
	// server that keeps waiting instead.
	conn.SetReadDeadline(time.Now().Add(20 * headerTimeout))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection not closed by the server: %v", err)
	}
	if waited := time.Since(start); waited < headerTimeout {
		t.Fatalf("closed after %v, before the %v header timeout", waited, headerTimeout)
	}
	if got := srv.InFlight(); got != 0 {
		t.Fatalf("stalled client holds %d admission slots", got)
	}

	// The production server carries the fixed limits and no write
	// timeout (queries carry their own deadlines).
	prod := srv.HTTPServer()
	if prod.ReadHeaderTimeout != readHeaderTimeout || prod.IdleTimeout != idleTimeout ||
		prod.MaxHeaderBytes != maxHeaderBytes || prod.WriteTimeout != 0 {
		t.Fatalf("production limits = header %v idle %v maxHeader %d write %v",
			prod.ReadHeaderTimeout, prod.IdleTimeout, prod.MaxHeaderBytes, prod.WriteTimeout)
	}
}
