package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func mustGen(t *testing.T, cfg opGenConfig) *opGen {
	t.Helper()
	g, err := newOpGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func drawOps(g *opGen, worker, n int) []op {
	s := g.worker(worker)
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestScheduleDeterministic(t *testing.T) {
	cfg := opGenConfig{Seed: 7, Queries: 32, ZipfS: 1.1, K: 5, BatchSize: 4, RootChildren: 3, NavReady: true}
	a := drawOps(mustGen(t, cfg), 2, 200)
	b := drawOps(mustGen(t, cfg), 2, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between identical seeds:\n %+v\n %+v", i, a[i], b[i])
		}
	}
	// A different seed must produce a different stream.
	cfg.Seed = 8
	c := drawOps(mustGen(t, cfg), 2, 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestWorkerStreamsIndependent(t *testing.T) {
	cfg := opGenConfig{Seed: 7, Queries: 32, ZipfS: 1.1, NavReady: true, RootChildren: 2}
	g := mustGen(t, cfg)
	// Worker w's stream must not depend on other workers having drawn.
	solo := drawOps(g, 3, 50)
	g2 := mustGen(t, cfg)
	_ = drawOps(g2, 0, 17) // interleave another worker first
	both := drawOps(g2, 3, 50)
	for i := range solo {
		if solo[i] != both[i] {
			t.Fatalf("worker 3 stream shifted by worker 0 activity at op %d", i)
		}
	}
}

func TestScheduleShapes(t *testing.T) {
	g := mustGen(t, opGenConfig{Seed: 1, Queries: 16, ZipfS: 1.2, K: 7, BatchSize: 3, RootChildren: 4, NavReady: true})
	kinds := make(map[string]int)
	for _, o := range drawOps(g, 0, 500) {
		kinds[o.kind]++
		switch o.kind {
		case "suggest", "discover", "search":
			if o.body != "" {
				t.Fatalf("%s op has a body", o.kind)
			}
			if !strings.HasPrefix(o.path, "/api/") {
				t.Fatalf("%s op path %q", o.kind, o.path)
			}
		case "batch_suggest", "batch_search":
			var req struct {
				Queries []map[string]any `json:"queries"`
			}
			if err := json.Unmarshal([]byte(o.body), &req); err != nil {
				t.Fatalf("%s body not JSON: %v", o.kind, err)
			}
			if len(req.Queries) != 3 {
				t.Fatalf("%s batch has %d queries, want 3", o.kind, len(req.Queries))
			}
		default:
			t.Fatalf("unknown op kind %q", o.kind)
		}
	}
	for _, kind := range []string{"suggest", "discover", "search", "batch_suggest", "batch_search"} {
		if kinds[kind] == 0 {
			t.Errorf("schedule never produced %s", kind)
		}
	}
}

func TestSearchOnlyWhenNotReady(t *testing.T) {
	g := mustGen(t, opGenConfig{Seed: 1, Queries: 16, ZipfS: 1.2, NavReady: false})
	for i, o := range drawOps(g, 0, 100) {
		if o.kind != "search" {
			t.Fatalf("op %d is %s on a not-ready server", i, o.kind)
		}
	}
}

func TestRecorderSummary(t *testing.T) {
	var buf bytes.Buffer
	r := newRecorder(&buf)
	r.add(record{Op: "search", Status: 200, LatencyMS: 1})
	r.add(record{Op: "search", Status: 200, LatencyMS: 3})
	r.add(record{Op: "suggest", Status: 503, Shed: true, LatencyMS: 9})
	r.add(record{Op: "suggest", Status: 500, LatencyMS: 2})
	r.add(record{Op: "discover", Error: "dial refused"})

	s := r.summarize(2 * time.Second)
	if s.Requests != 5 || s.Shed != 1 || s.NetErrors != 1 {
		t.Errorf("summary counts = %+v", s)
	}
	// Failures: the 500 and the transport error; the shed 503 is not one.
	if s.Failures != 2 {
		t.Errorf("Failures = %d, want 2", s.Failures)
	}
	if s.Throughput != 2.5 {
		t.Errorf("Throughput = %v, want 2.5", s.Throughput)
	}
	// Shed and transport-error requests stay out of the latency population.
	if s.LatencyMS.Max != 3 {
		t.Errorf("latency max = %v, want 3", s.LatencyMS.Max)
	}
	// One NDJSON line per request.
	lines := strings.Count(buf.String(), "\n")
	if lines != 5 {
		t.Errorf("NDJSON lines = %d, want 5", lines)
	}
}

// TestRecorderDegradedAccounting pins the three-way split the fleet
// soak gates on: degraded answers (whole-request 503s naming a dead
// shard, and per-item degradations inside 200 batches) are counted,
// but excluded from both Failures and the latency population —
// -fail-on-error must stay green through a kill window while
// -fail-on-degraded trips.
func TestRecorderDegradedAccounting(t *testing.T) {
	r := newRecorder(nil)
	r.add(record{Op: "search", Status: 200, LatencyMS: 2})
	// Coordinator answered 503 "shard s1 unavailable: ..." — degraded.
	r.add(record{Op: "search", Status: 503, Degraded: true, LatencyMS: 5000})
	// 200 batch with three shard-unavailable items inside.
	r.add(record{Op: "batch_suggest", Status: 200, DegradedItems: 3, LatencyMS: 4})
	// Shed 503 and a real failure, for contrast.
	r.add(record{Op: "suggest", Status: 503, Shed: true})
	r.add(record{Op: "suggest", Status: 500, LatencyMS: 1})

	s := r.summarize(time.Second)
	if s.Degraded != 1 || s.DegradedItems != 3 {
		t.Errorf("Degraded = %d, DegradedItems = %d, want 1 and 3", s.Degraded, s.DegradedItems)
	}
	// Only the plain 500 is a failure: not the degraded 503, not the
	// shed 503, not the partially degraded 200.
	if s.Failures != 1 {
		t.Errorf("Failures = %d, want 1", s.Failures)
	}
	if s.Shed != 1 {
		t.Errorf("Shed = %d, want 1", s.Shed)
	}
	// The degraded 503's 5000ms is a dead shard's timeout, not service
	// time; it must stay out of the latency population.
	if s.LatencyMS.Max != 4 {
		t.Errorf("latency max = %v, want 4 (degraded latency leaked in)", s.LatencyMS.Max)
	}
	// Degraded responses are still booked by status.
	if s.ByStatus["503"] != 2 {
		t.Errorf("ByStatus[503] = %d, want 2 (shed + degraded)", s.ByStatus["503"])
	}
}

// degradedStub answers like a coordinator in a kill window: /api paths
// 503 with a shard-unavailable body, /batch paths 200 with the
// X-Fleet-Degraded header.
func degradedStub() (*httptest.Server, *atomic.Int64) {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		if strings.HasPrefix(r.URL.Path, "/batch/") {
			w.Header().Set("X-Fleet-Degraded", "2")
			fmt.Fprint(w, `{"results":[{"error":"shard s1 unavailable"},{"error":"shard s1 unavailable"}]}`)
			return
		}
		http.Error(w, "shard s1 unavailable: connection refused", http.StatusServiceUnavailable)
	})), &n
}

// TestIssueDetectsDegradation drives issue() against coordinator-style
// degraded answers: the 503 must be classified degraded (and never
// retried — it is an HTTP response, not a transport error), and the
// 200 batch must pick up the per-item count from the header.
func TestIssueDetectsDegradation(t *testing.T) {
	srv, hits := degradedStub()
	defer srv.Close()
	run := &runner{
		client: srv.Client(), base: srv.URL, records: newRecorder(nil),
		retries: 3, retryBase: time.Millisecond,
	}
	run.issue(0, op{kind: "search", path: "/api/search?q=x&lake=lake-1"})
	run.issue(0, op{kind: "batch_suggest", path: "/batch/suggest", body: `{"queries":[]}`})
	if got := hits.Load(); got != 2 {
		t.Fatalf("degraded responses were retried: %d attempts for 2 requests", got)
	}
	s := run.records.summarize(time.Second)
	if s.Degraded != 1 || s.DegradedItems != 2 {
		t.Errorf("Degraded = %d, DegradedItems = %d, want 1 and 2", s.Degraded, s.DegradedItems)
	}
	if s.Failures != 0 || s.Shed != 0 || s.NetErrors != 0 || s.Retries != 0 {
		t.Errorf("degradation leaked into other buckets: %+v", s)
	}
}

// TestScheduleLakes pins fleet mode's two contracts: -lakes 0 leaves
// the schedule byte-identical to a lake-less generator (single-server
// runs replay exactly), and -lakes N threads lake ids through every op
// kind — query params on single ops, item fields in batch bodies.
func TestScheduleLakes(t *testing.T) {
	base := opGenConfig{Seed: 11, Queries: 16, ZipfS: 1.1, K: 5, BatchSize: 3, RootChildren: 2, NavReady: true}

	zero := base
	zero.Lakes = 0
	plain := drawOps(mustGen(t, base), 1, 300)
	gated := drawOps(mustGen(t, zero), 1, 300)
	for i := range plain {
		if plain[i] != gated[i] {
			t.Fatalf("Lakes=0 changed the schedule at op %d:\n %+v\n %+v", i, plain[i], gated[i])
		}
	}

	fleet := base
	fleet.Lakes = 4
	single, batch := 0, 0
	for _, o := range drawOps(mustGen(t, fleet), 1, 300) {
		switch o.kind {
		case "suggest", "discover", "search":
			u, err := url.Parse(o.path)
			if err != nil {
				t.Fatal(err)
			}
			lake := u.Query().Get("lake")
			if !strings.HasPrefix(lake, "lake-") {
				t.Fatalf("%s op without lake param: %q", o.kind, o.path)
			}
			single++
		case "batch_suggest", "batch_search":
			var req struct {
				Queries []struct {
					Lake string `json:"lake"`
				} `json:"queries"`
			}
			if err := json.Unmarshal([]byte(o.body), &req); err != nil {
				t.Fatal(err)
			}
			for j, item := range req.Queries {
				if !strings.HasPrefix(item.Lake, "lake-") {
					t.Fatalf("%s item %d without lake field: %s", o.kind, j, o.body)
				}
			}
			batch++
		}
	}
	if single == 0 || batch == 0 {
		t.Fatalf("schedule shape: %d single, %d batch ops", single, batch)
	}

	// Fleet schedules are deterministic too.
	a := drawOps(mustGen(t, fleet), 2, 100)
	b := drawOps(mustGen(t, fleet), 2, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fleet schedule not deterministic at op %d", i)
		}
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(sorted, 0.5); q != 5 {
		t.Errorf("p50 = %v", q)
	}
	if q := quantile(sorted, 0.99); q != 9 {
		t.Errorf("p99 = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

// stubServer mimics the navserver surface lakeload touches, counting
// requests and shedding a configurable fraction with the literal
// "overloaded" 503 body.
func stubServer(ready bool, shedEvery int) (*httptest.Server, *atomic.Int64) {
	var n atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ready {
			http.Error(w, "organization not built yet", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/api/node", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"children":[{},{},{}]}`)
	})
	serve := func(w http.ResponseWriter, r *http.Request) {
		c := n.Add(1)
		if shedEvery > 0 && c%int64(shedEvery) == 0 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `[]`)
	}
	mux.HandleFunc("/api/suggest", serve)
	mux.HandleFunc("/api/discover", serve)
	mux.HandleFunc("/api/search", serve)
	mux.HandleFunc("/batch/suggest", serve)
	mux.HandleFunc("/batch/search", serve)
	return httptest.NewServer(mux), &n
}

func TestProbeServer(t *testing.T) {
	srv, _ := stubServer(true, 0)
	defer srv.Close()
	probe, err := probeServer(srv.Client(), srv.URL, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !probe.Ready || probe.RootChildren != 3 {
		t.Errorf("probe = %+v", probe)
	}

	notReady, _ := stubServer(false, 0)
	defer notReady.Close()
	probe, err = probeServer(notReady.Client(), notReady.URL, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if probe.Ready {
		t.Error("not-ready server probed ready")
	}
}

func TestClosedLoopSmoke(t *testing.T) {
	srv, hits := stubServer(true, 7)
	defer srv.Close()
	g := mustGen(t, opGenConfig{Seed: 3, Queries: 8, ZipfS: 1.1, BatchSize: 2, RootChildren: 3, NavReady: true})
	var buf bytes.Buffer
	run := &runner{client: srv.Client(), base: srv.URL, records: newRecorder(&buf)}
	run.runClosed(g, 4, 300*time.Millisecond)
	s := run.records.summarize(300 * time.Millisecond)
	if s.Requests == 0 || hits.Load() == 0 {
		t.Fatal("closed loop issued no requests")
	}
	// Every 7th stub response sheds; shed must be detected and excluded
	// from failures.
	if s.Shed == 0 {
		t.Error("no shed responses detected")
	}
	if s.Failures != 0 {
		t.Errorf("Failures = %d, want 0 (only shed 503s)", s.Failures)
	}
	// NDJSON is one valid JSON object per line.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
	}
}

// flakyServer kills the connection (a transport error for the client)
// until failures answers have been killed, then serves 200s.
func flakyServer(failures int) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= int64(failures) {
			hj, ok := w.(http.Hijacker)
			if !ok {
				panic("recorder is not a hijacker")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				panic(err)
			}
			conn.Close()
			return
		}
		fmt.Fprint(w, `[]`)
	}))
}

func TestRetryRecoversFromTransportError(t *testing.T) {
	srv := flakyServer(2)
	defer srv.Close()
	run := &runner{
		client: srv.Client(), base: srv.URL, records: newRecorder(nil),
		retries: 3, retryBase: time.Millisecond,
	}
	run.issue(0, op{kind: "search", path: "/api/search?q=x"})
	s := run.records.summarize(time.Second)
	if s.NetErrors != 0 || s.Failures != 0 {
		t.Fatalf("recovered request counted as failure: %+v", s)
	}
	if s.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", s.Retries)
	}
	if s.ByStatus["200"] != 1 {
		t.Fatalf("ByStatus = %v", s.ByStatus)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	srv := flakyServer(1 << 30)
	defer srv.Close()
	run := &runner{
		client: srv.Client(), base: srv.URL, records: newRecorder(nil),
		retries: 2, retryBase: time.Millisecond,
	}
	run.issue(0, op{kind: "search", path: "/api/search?q=x"})
	s := run.records.summarize(time.Second)
	if s.NetErrors != 1 || s.Failures != 1 {
		t.Fatalf("exhausted retries not a net error: %+v", s)
	}
	if s.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", s.Retries)
	}
}

func TestRetryNeverReplaysHTTPResponses(t *testing.T) {
	srv, hits := stubServer(true, 1) // every response sheds with 503
	defer srv.Close()
	run := &runner{
		client: srv.Client(), base: srv.URL, records: newRecorder(nil),
		retries: 5, retryBase: time.Millisecond,
	}
	before := hits.Load()
	run.issue(0, op{kind: "search", path: "/api/search?q=x"})
	if got := hits.Load() - before; got != 1 {
		t.Fatalf("shed 503 was retried: %d attempts", got)
	}
	s := run.records.summarize(time.Second)
	if s.Retries != 0 || s.Shed != 1 {
		t.Fatalf("summary %+v", s)
	}
}

func TestBackoffJitteredExponential(t *testing.T) {
	run := &runner{retryBase: 10 * time.Millisecond}
	for attempt := 0; attempt < 4; attempt++ {
		lo := time.Duration(float64(run.retryBase) * float64(int(1)<<attempt) / 2)
		hi := run.retryBase * (1 << attempt)
		for i := 0; i < 50; i++ {
			if d := run.backoff(attempt); d < lo || d > hi {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
	if (&runner{}).backoff(3) != 0 {
		t.Fatal("zero base must not sleep")
	}
}
