package navhttp

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lakenav"
	"lakenav/internal/serve"
)

func testLakeAndOrg(t *testing.T) (*lakenav.Lake, *lakenav.Organization) {
	t.Helper()
	l := lakenav.NewLake()
	l.AddTable("fish", []string{"fisheries"},
		lakenav.Column{Name: "species", Values: []string{"pacific salmon", "atlantic cod"}})
	l.AddTable("crops", []string{"agriculture"},
		lakenav.Column{Name: "crop", Values: []string{"winter wheat", "spring barley"}})
	l.AddTable("transit", []string{"city"},
		lakenav.Column{Name: "route", Values: []string{"harbour loop", "night bus"}})
	org, err := lakenav.Organize(l, lakenav.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return l, org
}

// newServer is the test shorthand for the common Options shape.
func newServer(search *lakenav.SearchEngine, maxInflight int) *Server {
	return New(search, Options{MaxInflight: maxInflight})
}

func testServer(t *testing.T) *Server {
	t.Helper()
	l, org := testLakeAndOrg(t)
	s := newServer(lakenav.NewSearchEngine(l), 0)
	s.SetOrganization(org)
	return s
}

func get(t *testing.T, h http.HandlerFunc, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h(rec, req)
	return rec
}

func TestHandleNodeRoot(t *testing.T) {
	s := testServer(t)
	rec := get(t, s.handleNode, "/api/node")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp nodeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Depth != 1 || resp.Here.IsLeaf {
		t.Errorf("root response = %+v", resp)
	}
	if len(resp.Children) == 0 {
		t.Error("root has no children")
	}
}

func TestHandleNodeDescends(t *testing.T) {
	s := testServer(t)
	rec := get(t, s.handleNode, "/api/node?path=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp nodeResponse
	json.Unmarshal(rec.Body.Bytes(), &resp)
	if resp.Depth != 2 {
		t.Errorf("depth = %d", resp.Depth)
	}
}

func TestHandleNodeBadPath(t *testing.T) {
	s := testServer(t)
	longPath := strings.Repeat("0.", serve.MaxPathLen) + "0"
	deepPath := strings.TrimSuffix(strings.Repeat("0.", serve.MaxPathElems+1), ".")
	for _, url := range []string{
		"/api/node?path=zebra",
		"/api/node?path=999",
		"/api/node?path=-1",
		"/api/node?path=" + longPath,
		"/api/node?path=" + deepPath,
	} {
		if rec := get(t, s.handleNode, url); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d", url, rec.Code)
		}
	}
}

func TestHandleNodeBadDim(t *testing.T) {
	s := testServer(t)
	for _, url := range []string{
		"/api/node?dim=zebra",
		"/api/node?dim=-1",
		"/api/node?dim=99",
		"/api/node?dim=1e3",
	} {
		if rec := get(t, s.handleNode, url); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d", url, rec.Code)
		}
	}
	if rec := get(t, s.handleNode, "/api/node?dim=0"); rec.Code != http.StatusOK {
		t.Errorf("dim=0: status %d", rec.Code)
	}
}

func TestHandleSuggest(t *testing.T) {
	s := testServer(t)
	rec := get(t, s.handleSuggest, "/api/suggest?q=salmon")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var ranked []lakenav.ScoredNode
	if err := json.Unmarshal(rec.Body.Bytes(), &ranked); err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no suggestions")
	}
	if rec := get(t, s.handleSuggest, "/api/suggest"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing q: status %d", rec.Code)
	}
}

func TestHandleSearch(t *testing.T) {
	s := testServer(t)
	rec := get(t, s.handleSearch, "/api/search?q=salmon&k=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var hits []string
	if err := json.Unmarshal(rec.Body.Bytes(), &hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0] != "fish" {
		t.Errorf("hits = %v", hits)
	}
	if rec := get(t, s.handleSearch, "/api/search"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing q: status %d", rec.Code)
	}
}

func TestHandleSearchBadK(t *testing.T) {
	s := testServer(t)
	for _, url := range []string{
		"/api/search?q=salmon&k=zebra",
		"/api/search?q=salmon&k=0",
		"/api/search?q=salmon&k=-5",
		"/api/search?q=salmon&k=1000000",
	} {
		if rec := get(t, s.handleSearch, url); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d", url, rec.Code)
		}
	}
}

func TestHandleIndex(t *testing.T) {
	s := testServer(t)
	rec := get(t, s.handleIndex, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	if rec := get(t, s.handleIndex, "/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path: status %d", rec.Code)
	}
}

// Before the background build lands an organization, navigation
// endpoints shed with 503, /readyz says not ready, /healthz says alive,
// and keyword search works — the org-less startup contract.
func TestServesSearchWhileOrgBuilds(t *testing.T) {
	l, org := testLakeAndOrg(t)
	s := newServer(lakenav.NewSearchEngine(l), 0)
	h := s.Handler()

	do := func(url string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec.Code
	}
	if code := do("/healthz"); code != http.StatusOK {
		t.Errorf("healthz before build: %d", code)
	}
	if code := do("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz before build: %d", code)
	}
	if code := do("/api/node"); code != http.StatusServiceUnavailable {
		t.Errorf("node before build: %d", code)
	}
	if code := do("/api/suggest?q=salmon"); code != http.StatusServiceUnavailable {
		t.Errorf("suggest before build: %d", code)
	}
	if code := do("/api/search?q=salmon"); code != http.StatusOK {
		t.Errorf("search before build: %d", code)
	}

	s.SetOrganization(org)
	if code := do("/readyz"); code != http.StatusOK {
		t.Errorf("readyz after build: %d", code)
	}
	if code := do("/api/node"); code != http.StatusOK {
		t.Errorf("node after build: %d", code)
	}
}

// The organization pointer swap must be safe under concurrent request
// load — this is the test the -race run pins down.
func TestOrgSwapUnderLoad(t *testing.T) {
	l, orgA := testLakeAndOrg(t)
	cfg := lakenav.DefaultConfig()
	cfg.Seed = 99
	orgB, err := lakenav.Organize(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(lakenav.NewSearchEngine(l), 128)
	s.SetOrganization(orgA)
	h := s.Handler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			urls := []string{"/api/node", "/api/node?path=0", "/api/suggest?q=salmon", "/api/search?q=wheat", "/readyz"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, urls[i%len(urls)], nil))
				if rec.Code != http.StatusOK && rec.Code != http.StatusServiceUnavailable {
					t.Errorf("%s during swap: %d", urls[i%len(urls)], rec.Code)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			s.SetOrganization(orgB)
		} else {
			s.SetOrganization(orgA)
		}
	}
	close(stop)
	wg.Wait()
}

// With the semaphore full, API requests shed with 503 while health
// probes keep answering.
func TestLimitwareShedsLoad(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.sem); i++ {
			<-s.sem
		}
	}()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/search?q=salmon", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("saturated server returned %d", rec.Code)
	}
	if got := s.metrics.shed.Value(); got != 1 {
		t.Errorf("shed counter = %d after one shed 503", got)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz under saturation returned %d", rec.Code)
	}
	// /metrics bypasses the semaphore too: the observability endpoint
	// must answer precisely when the server is drowning.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("metrics under saturation returned %d", rec.Code)
	}
	if got := s.metrics.requests["/api/search"].Value(); got != 1 {
		t.Errorf("shed request not metered: search requests = %d", got)
	}
	if got := s.metrics.status["5xx"].Value(); got != 1 {
		t.Errorf("shed 503 not booked under 5xx: %d", got)
	}
}

// /metrics exports the server registry — request counters, latency
// histograms, status classes — next to the process-wide core registry.
func TestHandleMetrics(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	do := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec
	}
	do("/api/node")
	do("/api/node?path=0")
	do("/api/search?q=salmon")
	do("/api/suggest") // 400: books under 4xx

	rec := do("/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var resp struct {
		Server struct {
			Counters   map[string]uint64 `json:"counters"`
			Gauges     map[string]int64  `json:"gauges"`
			Values     map[string]float64
			Histograms map[string]struct {
				Count   uint64 `json:"count"`
				Sum     float64
				Buckets []struct {
					Le    string `json:"le"`
					Count uint64 `json:"count"`
				} `json:"buckets"`
			} `json:"histograms"`
		} `json:"server"`
		Core struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"core"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if got := resp.Server.Counters["http.requests./api/node"]; got != 2 {
		t.Errorf("node requests = %d, want 2", got)
	}
	if got := resp.Server.Counters["http.status.2xx"]; got < 3 {
		t.Errorf("2xx = %d, want >= 3", got)
	}
	if got := resp.Server.Counters["http.status.4xx"]; got != 1 {
		t.Errorf("4xx = %d, want 1", got)
	}
	hist, ok := resp.Server.Histograms["http.latency_seconds./api/search"]
	if !ok || hist.Count != 1 || len(hist.Buckets) == 0 {
		t.Errorf("search latency histogram = %+v, ok=%v", hist, ok)
	} else if last := hist.Buckets[len(hist.Buckets)-1]; last.Le != "+Inf" {
		t.Errorf("last bucket le = %q", last.Le)
	}
	// The /metrics request observes itself in flight: the snapshot runs
	// inside metricsware, after the gauge was incremented.
	if got := resp.Server.Gauges["http.inflight"]; got != 1 {
		t.Errorf("inflight as seen by /metrics itself = %d, want 1", got)
	}
	if got := s.metrics.inflight.Value(); got != 0 {
		t.Errorf("inflight after all responses done = %d", got)
	}
	// The build gauges exist even before any build runs; core counters
	// advance because Organize in the test fixture ran the evaluator.
	if _, ok := resp.Server.Gauges["build.running"]; !ok {
		t.Error("build.running gauge missing")
	}
	if got := resp.Core.Counters["core.evaluator.builds_total"]; got == 0 {
		t.Error("core evaluator counters absent from /metrics")
	}
}

// Optimizer progress events drive the build gauges that /metrics exposes
// while a background build is running.
func TestBuildGaugesFollowProgress(t *testing.T) {
	s := testServer(t)
	s.metrics.noteBuildProgress(lakenav.ProgressEvent{
		Dim: 1, Iteration: 7, Accepted: 4, Rejected: 3,
		CurrentEff: 1.25, BestEff: 1.5, Checkpoints: 1,
		StatesVisitedFrac: 0.25, AttrsVisitedFrac: 0.125,
	})
	// A final event carries no visit fractions; the gauges keep the last
	// iteration's.
	s.metrics.noteBuildProgress(lakenav.ProgressEvent{
		Dim: 1, Iteration: 7, Accepted: 4, Rejected: 3,
		CurrentEff: 1.25, BestEff: 1.5, Checkpoints: 1, Final: true,
	})
	rec := get(t, s.handleMetrics, "/metrics")
	var resp struct {
		Server struct {
			Counters map[string]uint64  `json:"counters"`
			Gauges   map[string]int64   `json:"gauges"`
			Values   map[string]float64 `json:"values"`
		} `json:"server"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	g := resp.Server.Gauges
	if g["build.dim"] != 1 || g["build.iteration"] != 7 ||
		g["build.accepted"] != 4 || g["build.rejected"] != 3 || g["build.checkpoints"] != 1 {
		t.Errorf("build gauges = %v", g)
	}
	if resp.Server.Counters["build.events_total"] != 2 {
		t.Errorf("build.events_total = %d", resp.Server.Counters["build.events_total"])
	}
	v := resp.Server.Values
	if v["build.current_eff"] != 1.25 || v["build.best_eff"] != 1.5 {
		t.Errorf("build eff values = %v", v)
	}
	if v["build.states_visited_frac"] != 0.25 || v["build.attrs_visited_frac"] != 0.125 {
		t.Errorf("build visit fractions = %v", v)
	}
}

// The profiler lives on its own mux so it can be bound to a private
// listener; the index and symbol routes must answer.
func TestPprofMux(t *testing.T) {
	mux := PprofMux()
	for _, url := range []string{"/debug/pprof/", "/debug/pprof/symbol"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d", url, rec.Code)
		}
	}
}

// /admin/shard reports fleet identity: the shard id, the serving
// generation (bumped by every org swap), and readiness — and it must
// bypass load shedding like the other probes.
func TestHandleShard(t *testing.T) {
	l, org := testLakeAndOrg(t)
	s := New(lakenav.NewSearchEngine(l), Options{ShardID: "s7"})
	h := s.Handler()
	status := func() navhttpShardStatus {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/shard", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/admin/shard: status %d", rec.Code)
		}
		var st navhttpShardStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	before := status()
	if before.ShardID != "s7" || before.Ready {
		t.Errorf("pre-build status = %+v", before)
	}
	s.SetOrganization(org)
	after := status()
	if !after.Ready || after.Generation <= before.Generation {
		t.Errorf("post-build status = %+v (before %+v)", after, before)
	}
	// The shard id also tags the /metrics export.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var metrics struct {
		ShardID string `json:"shard_id"`
		Server  struct {
			Gauges map[string]int64 `json:"gauges"`
		} `json:"server"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.ShardID != "s7" {
		t.Errorf("metrics shard_id = %q", metrics.ShardID)
	}
	if got := metrics.Server.Gauges["shard.generation"]; got != int64(after.Generation) {
		t.Errorf("shard.generation gauge = %d, want %d", got, after.Generation)
	}
	// Shedding bypass: with the semaphore full the probe still answers.
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.sem); i++ {
			<-s.sem
		}
	}()
	if st := status(); st.ShardID != "s7" {
		t.Errorf("saturated /admin/shard = %+v", st)
	}
}

// navhttpShardStatus mirrors ShardStatus for decoding in tests.
type navhttpShardStatus = ShardStatus
