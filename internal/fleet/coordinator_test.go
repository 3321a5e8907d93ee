package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lakenav"
	"lakenav/internal/httpx"
	"lakenav/internal/navhttp"
	"lakenav/internal/obs"
)

// shedBody is the coordinator's shed 503 body.
const shedBody = httpx.Overloaded

// fleetLakeAndOrg builds the shared fixture: every shard serves the
// same lake and (deterministically built) organization, so any shard's
// answer to a query is bit-identical to any other's — the property the
// merge tests lean on.
func fleetLakeAndOrg(t *testing.T) (*lakenav.Lake, *lakenav.Organization) {
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

// flakyShard wraps a shard handler with a kill switch: while down, it
// hijacks and closes the connection so the coordinator's client sees a
// transport error — the in-process stand-in for a killed process that
// avoids listener port-reuse races.
type flakyShard struct {
	down atomic.Bool
	// h is atomic because tests replace it while the health sweep may
	// already be probing the shard.
	h atomic.Pointer[http.Handler]
}

func (f *flakyShard) setHandler(h http.Handler) { f.h.Store(&h) }

func (f *flakyShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("flakyShard: response writer cannot hijack")
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			panic(err)
		}
		conn.Close()
		return
	}
	(*f.h.Load()).ServeHTTP(w, r)
}

// testFleet is a booted in-process fleet: N navhttp shards behind
// flaky wrappers, a shard map naming them, and a coordinator serving
// it.
type testFleet struct {
	coord  *Coordinator
	m      *ShardMap
	ring   *Ring
	lake   *lakenav.Lake
	shards map[string]*navhttp.Server
	flaky  map[string]*flakyShard
	h      http.Handler
}

func bootFleet(t *testing.T, n int, opts Options) *testFleet {
	t.Helper()
	l, org := fleetLakeAndOrg(t)
	tf := &testFleet{
		lake:   l,
		shards: make(map[string]*navhttp.Server, n),
		flaky:  make(map[string]*flakyShard, n),
	}
	m := &ShardMap{Version: ShardMapVersion}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("s%d", i)
		s := navhttp.New(lakenav.NewSearchEngine(l), navhttp.Options{ShardID: id})
		s.SetOrganization(org)
		f := &flakyShard{}
		f.setHandler(s.Handler())
		srv := httptest.NewServer(f)
		t.Cleanup(srv.Close)
		tf.shards[id] = s
		tf.flaky[id] = f
		m.Shards = append(m.Shards, ShardInfo{ID: id, Addr: srv.URL})
	}
	tf.m = m
	tf.ring = NewRing(m.IDs(), m.VNodes)
	tf.coord = New(opts)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		tf.coord.Close()
		cancel()
	})
	if err := tf.coord.SetMap(ctx, m); err != nil {
		t.Fatal(err)
	}
	tf.h = tf.coord.Handler()
	return tf
}

func (tf *testFleet) get(t *testing.T, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	tf.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

func (tf *testFleet) post(t *testing.T, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	tf.h.ServeHTTP(rec, req)
	return rec
}

// waitFirstSweep blocks until the coordinator's first health sweep,
// started by SetMap, has finished with every shard healthy. Its probes
// go through the same clients as requests and book retries and health
// transitions into the counters tests read.
func (tf *testFleet) waitFirstSweep(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tf.coord.m.healthy.Value() != int64(len(tf.m.Shards)) {
		if time.Now().After(deadline) {
			t.Fatal("first health sweep never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

// counterValue reads one counter out of the coordinator's registry.
func counterValue(t *testing.T, c *Coordinator, name string) uint64 {
	t.Helper()
	for n, v := range c.m.reg.Snapshot().Counters {
		if n == name {
			return v
		}
	}
	t.Fatalf("counter %q not registered", name)
	return 0
}

// batchBodies builds a coordinator /batch/suggest body spanning many
// lakes plus the identical body with the lake routing field stripped —
// what the same batch looks like to a single navserver.
func batchBodies(lakes int) (coord, single string) {
	var cq, sq []string
	for i := 0; i < lakes; i++ {
		cq = append(cq, fmt.Sprintf(`{"lake":"lake-%d","q":"salmon","k":2}`, i))
		sq = append(sq, `{"q":"salmon","k":2}`)
	}
	return `{"queries":[` + strings.Join(cq, ",") + `]}`,
		`{"queries":[` + strings.Join(sq, ",") + `]}`
}

// TestCoordinatorBatchBitIdentical is the merge contract: with every
// shard healthy, the coordinator's merged /batch/suggest and
// /batch/search bodies are byte-for-byte what one navserver answers
// for the same batch on the same organization.
func TestCoordinatorBatchBitIdentical(t *testing.T) {
	tf := bootFleet(t, 3, Options{})
	l, org := fleetLakeAndOrg(t)
	ref := navhttp.New(lakenav.NewSearchEngine(l), navhttp.Options{})
	ref.SetOrganization(org)
	refH := ref.Handler()

	coordBody, singleBody := batchBodies(12)
	for _, ep := range []string{"/batch/suggest", "/batch/search"} {
		got := tf.post(t, ep, coordBody)
		if got.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", ep, got.Code, got.Body)
		}
		if h := got.Header().Get(degradedHeader); h != "" {
			t.Fatalf("%s: degraded header %q on a healthy fleet", ep, h)
		}
		req := httptest.NewRequest(http.MethodPost, ep, strings.NewReader(singleBody))
		req.Header.Set("Content-Type", "application/json")
		want := httptest.NewRecorder()
		refH.ServeHTTP(want, req)
		if want.Code != http.StatusOK {
			t.Fatalf("%s reference: status %d: %s", ep, want.Code, want.Body)
		}
		if got.Body.String() != want.Body.String() {
			t.Errorf("%s: merged body differs from single navserver\n got: %s\nwant: %s",
				ep, got.Body, want.Body)
		}
	}

	// The fan-out genuinely crossed shards — a batch of 12 lakes on a
	// 3-shard/64-vnode ring landing on one shard would be (2/3)^12 ≈
	// 0.8% luck, and the ring is deterministic, so this is stable.
	if got := counterValue(t, tf.coord, "fleet.fanout.subbatches_total"); got < 4 {
		t.Errorf("fanout sub-batches = %d, want ≥ 4 (two batches over >1 shard)", got)
	}
}

// TestCoordinatorKilledShardDegrades pins the degradation contract: a
// dead shard turns exactly its own items into per-item errors — the
// response is still a 200, survivors still answer, the degraded count
// is advertised in the header, and fleet.shard.down fires.
func TestCoordinatorKilledShardDegrades(t *testing.T) {
	tf := bootFleet(t, 3, Options{Client: ClientOptions{Timeout: time.Second, Retries: 0}})
	dead := "s1"
	// A sweep still probing would race the request to mark s1 down.
	tf.waitFirstSweep(t)
	tf.flaky[dead].down.Store(true)
	downBefore := counterValue(t, tf.coord, "fleet.shard.down")

	const lakes = 18
	coordBody, _ := batchBodies(lakes)
	rec := tf.post(t, "/batch/suggest", coordBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 even with a dead shard: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Results []struct {
			Suggestions []lakenav.ScoredNode `json:"suggestions"`
			Error       string               `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != lakes {
		t.Fatalf("got %d results, want %d", len(resp.Results), lakes)
	}
	degraded := 0
	for i, res := range resp.Results {
		owner := tf.ring.Place(NavKey(fmt.Sprintf("lake-%d", i), 0))
		if owner == dead {
			degraded++
			if !strings.Contains(res.Error, dead) || !strings.Contains(res.Error, "unavailable") {
				t.Errorf("item %d (owner %s): error = %q, want shard-unavailable", i, owner, res.Error)
			}
			if res.Suggestions != nil {
				t.Errorf("item %d: degraded item carries suggestions", i)
			}
			continue
		}
		if res.Error != "" || len(res.Suggestions) == 0 {
			t.Errorf("item %d (owner %s): surviving shard item = %+v", i, owner, res)
		}
	}
	if degraded == 0 {
		t.Fatal("no items were owned by the dead shard; fixture needs more lakes")
	}
	if h := rec.Header().Get(degradedHeader); h != fmt.Sprint(degraded) {
		t.Errorf("%s = %q, want %d", degradedHeader, h, degraded)
	}
	if got := counterValue(t, tf.coord, "fleet.shard.down"); got != downBefore+1 {
		t.Errorf("fleet.shard.down = %d, want %d", got, downBefore+1)
	}
	if got := counterValue(t, tf.coord, "fleet.degraded_items_total"); got < uint64(degraded) {
		t.Errorf("fleet.degraded_items_total = %d, want ≥ %d", got, degraded)
	}

	// Revival: the shard comes back, the next batch is whole again and
	// the client's passive health check marks it up.
	tf.flaky[dead].down.Store(false)
	rec = tf.post(t, "/batch/suggest", coordBody)
	if rec.Code != http.StatusOK || rec.Header().Get(degradedHeader) != "" {
		t.Fatalf("post-revival batch: status %d, degraded %q", rec.Code, rec.Header().Get(degradedHeader))
	}
}

// pickLakeFor finds a lake id whose navigation key lands on the wanted
// shard — how tests aim traffic at one shard deterministically.
func pickLakeFor(t *testing.T, r *Ring, shard string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		lake := fmt.Sprintf("aim-%d", i)
		if r.Place(NavKey(lake, 0)) == shard {
			return lake
		}
	}
	t.Fatalf("no lake places on shard %s", shard)
	return ""
}

// TestCoordinatorGenBumpInvalidatesOneShard pins shard-aware
// invalidation: swapping the organization on one shard invalidates
// that shard's serve cache (generation-stamped entries) and no one
// else's. The serve.cache hit counters are process-wide, so the test
// reads deltas around each step.
func TestCoordinatorGenBumpInvalidatesOneShard(t *testing.T) {
	tf := bootFleet(t, 2, Options{CheckInterval: 20 * time.Millisecond})
	lakeA := pickLakeFor(t, tf.ring, "s0")
	lakeB := pickLakeFor(t, tf.ring, "s1")
	urlA := "/api/suggest?lake=" + lakeA + "&q=salmon"
	urlB := "/api/suggest?lake=" + lakeB + "&q=salmon"

	hits := func() uint64 {
		snap := obs.Default.Snapshot()
		return snap.Counters["serve.cache.hits_total"]
	}
	// Prime both shards' caches, then confirm repeats hit.
	tf.get(t, urlA)
	tf.get(t, urlB)
	before := hits()
	tf.get(t, urlA)
	tf.get(t, urlB)
	if got := hits(); got != before+2 {
		t.Fatalf("warm repeats: %d hits, want %d", got-before, 2)
	}

	// Bump s0's generation: same org content, new snapshot, new
	// generation stamp — s0's cached entries all go stale at once.
	org, err := lakenav.Organize(tf.lake, lakenav.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tf.shards["s0"].SetOrganization(org)

	before = hits()
	recB := tf.get(t, urlB)
	if got := hits(); got != before+1 {
		t.Errorf("s1 after s0's bump: %d hits, want 1 (cache must survive)", got-before)
	}
	if recB.Code != http.StatusOK {
		t.Errorf("s1 serve after bump: status %d", recB.Code)
	}
	before = hits()
	recA := tf.get(t, urlA)
	if got := hits(); got != before {
		t.Errorf("s0 after its bump: %d hits, want 0 (stale entries must not serve)", got-before)
	}
	if recA.Code != http.StatusOK {
		t.Errorf("s0 serve after bump: status %d", recA.Code)
	}

	// The health loop observes the bump and books it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		status, ok := tf.coord.Status()
		if ok {
			var genA, genB uint64
			for _, sh := range status.Shards {
				if sh.ID == "s0" {
					genA = sh.Generation
				} else {
					genB = sh.Generation
				}
			}
			if genA > genB && counterValue(t, tf.coord, "fleet.shard.gen_bumps_total") >= 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("health loop never observed s0's generation bump")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoordinatorProxyRoutes covers the single-item proxy plane:
// responses pass through verbatim, the lake routing parameter is
// stripped before forwarding, shard 400s pass through, and a dead
// shard answers 503 with a body distinguishable from load shedding.
func TestCoordinatorProxyRoutes(t *testing.T) {
	tf := bootFleet(t, 2, Options{Client: ClientOptions{Timeout: time.Second}})
	l, org := fleetLakeAndOrg(t)
	ref := navhttp.New(lakenav.NewSearchEngine(l), navhttp.Options{})
	ref.SetOrganization(org)
	refH := ref.Handler()
	refGet := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		refH.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return rec
	}

	for _, c := range []struct{ coord, single string }{
		{"/api/suggest?lake=a&q=salmon", "/api/suggest?q=salmon"},
		{"/api/node?lake=a", "/api/node"},
		{"/api/discover?lake=a&q=salmon&k=2", "/api/discover?k=2&q=salmon"},
		{"/api/search?lake=a&q=salmon", "/api/search?q=salmon"},
	} {
		got := tf.get(t, c.coord)
		want := refGet(c.single)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("%s: (%d, %q), want (%d, %q)", c.coord, got.Code, got.Body, want.Code, want.Body)
		}
	}
	// Shard-side validation errors pass through.
	if rec := tf.get(t, "/api/suggest?lake=a"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing q: status %d, want shard's 400", rec.Code)
	}

	// Dead shard: a 503 whose body names the shard — lakeload tells
	// this apart from the coordinator's own "overloaded" shed.
	for id, f := range tf.flaky {
		_ = id
		f.down.Store(true)
	}
	rec := tf.get(t, "/api/suggest?lake=a&q=salmon")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("dead shard: status %d, want 503", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "unavailable") || strings.Contains(body, shedBody) {
		t.Errorf("dead-shard body %q: want shard-unavailable, not shed", body)
	}
}

// TestCoordinatorNoMap covers the pre-SetMap window.
func TestCoordinatorNoMap(t *testing.T) {
	c := New(Options{})
	h := c.Handler()
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodGet, "/api/suggest?q=a", nil),
		httptest.NewRequest(http.MethodPost, "/batch/suggest", strings.NewReader(`{"queries":[{"q":"a"}]}`)),
		httptest.NewRequest(http.MethodGet, "/admin/fleet", nil),
		httptest.NewRequest(http.MethodGet, "/readyz", nil),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s: status %d, want 503", req.Method, req.URL.Path, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/healthz: status %d", rec.Code)
	}
}

// TestCoordinatorBatchRejections mirrors navserver's batch input
// contract at the coordinator.
func TestCoordinatorBatchRejections(t *testing.T) {
	tf := bootFleet(t, 2, Options{})
	if rec := tf.get(t, "/batch/suggest"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d", rec.Code)
	}
	for name, body := range map[string]string{
		"malformed":          `{"queries":`,
		"unknown field":      `{"nope":[]}`,
		"unknown item field": `{"queries":[{"q":"a","zebra":1}]}`,
		"empty":              `{"queries":[]}`,
		"over budget":        `{"queries":[` + strings.Repeat(`{"q":"a"},`, httpx.MaxBatch) + `{"q":"a"}]}`,
		"trailing data":      `{"queries":[{"q":"salmon","k":1}]} garbage`,
	} {
		if rec := tf.post(t, "/batch/suggest", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}
}

// TestCoordinatorShedsAndBypasses: over the inflight budget the
// request plane sheds with the canonical body while the admin plane
// keeps answering.
func TestCoordinatorShedsAndBypasses(t *testing.T) {
	tf := bootFleet(t, 1, Options{MaxInflight: 1})
	tf.coord.sem <- struct{}{} // occupy the only slot
	defer func() { <-tf.coord.sem }()
	rec := tf.get(t, "/api/suggest?q=salmon")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), shedBody) {
		t.Errorf("shed = (%d, %q)", rec.Code, rec.Body)
	}
	if got := counterValue(t, tf.coord, "fleet.shed_total"); got == 0 {
		t.Error("shed not counted")
	}
	for _, url := range []string{"/admin/fleet", "/metrics", "/healthz", "/readyz"} {
		if rec := tf.get(t, url); rec.Code != http.StatusOK {
			t.Errorf("%s under saturation: status %d", url, rec.Code)
		}
	}
}

// TestCoordinatorCallerCancelKeepsShardHealthy: a caller that gives up
// (a client hanging up, or a map swap retiring a health loop mid-probe)
// says nothing about the shard, so it must not mark a healthy shard
// down, count a down edge, or fail /readyz.
func TestCoordinatorCallerCancelKeepsShardHealthy(t *testing.T) {
	tf := bootFleet(t, 1, Options{})
	// Wait out the first sweep, so its probe cannot mark the shard up
	// again behind the test's back; the next one is 2s away.
	deadline := time.Now().Add(2 * time.Second)
	for tf.coord.m.healthy.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first health sweep never finished")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodGet, "/api/search?q=salmon", nil),
		httptest.NewRequest(http.MethodPost, "/batch/search", strings.NewReader(`{"queries":[{"q":"salmon"}]}`)),
	} {
		tf.h.ServeHTTP(httptest.NewRecorder(), req.WithContext(ctx))
	}
	tf.coord.state.Load().clients["s0"].checkHealth(ctx)

	if status, _ := tf.coord.Status(); status.Healthy != 1 {
		t.Errorf("healthy shards = %d after cancelled calls, want 1", status.Healthy)
	}
	if got := counterValue(t, tf.coord, "fleet.shard.down"); got != 0 {
		t.Errorf("fleet.shard.down = %d after cancelled calls, want 0", got)
	}
	if rec := tf.get(t, "/readyz"); rec.Code != http.StatusOK {
		t.Errorf("/readyz after cancelled calls: status %d", rec.Code)
	}
}

// TestCoordinatorRetries: a shard that drops the first connection is
// reached on the retry; the request succeeds and the retry is counted.
func TestCoordinatorRetries(t *testing.T) {
	tf := bootFleet(t, 1, Options{Client: ClientOptions{Retries: 1, RetryBase: time.Millisecond, Timeout: time.Second}})
	f := tf.flaky["s0"]
	var calls atomic.Int64
	inner := *f.h.Load()
	f.setHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Health probes pass through: only request traffic is flaky,
		// so the coordinator's background sweep cannot eat the
		// scripted first-call failure.
		if r.URL.Path == "/admin/shard" {
			inner.ServeHTTP(w, r)
			return
		}
		if calls.Add(1) == 1 {
			// A malformed status line, not a bare close: net/http's
			// Transport silently replays an idempotent GET when a reused
			// keep-alive connection closes before sending a byte, so the
			// coordinator would never see the failure it must retry.
			hj := w.(http.Hijacker)
			conn, _, err := hj.Hijack()
			if err != nil {
				panic(err)
			}
			conn.Write([]byte("HTTP/1.1 garbage\r\n\r\n"))
			conn.Close()
			return
		}
		inner.ServeHTTP(w, r)
	}))
	rec := tf.get(t, "/api/suggest?lake=a&q=salmon")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d after retry: %s", rec.Code, rec.Body)
	}
	if got := counterValue(t, tf.coord, "fleet.retries_total"); got == 0 {
		t.Error("retry not counted")
	}
}

// TestCoordinatorAdminFleet exercises the status plane end to end:
// shard rows, health flags, and the healthy count both over HTTP and
// via Status().
func TestCoordinatorAdminFleet(t *testing.T) {
	tf := bootFleet(t, 3, Options{Client: ClientOptions{Timeout: time.Second, Retries: 0}})
	tf.flaky["s2"].down.Store(true)
	// A request against the dead shard flips its passive health state.
	lake := pickLakeFor(t, tf.ring, "s2")
	tf.get(t, "/api/suggest?lake="+lake+"&q=salmon")

	rec := tf.get(t, "/admin/fleet")
	if rec.Code != http.StatusOK {
		t.Fatalf("/admin/fleet: status %d", rec.Code)
	}
	var status FleetStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.MapVersion != ShardMapVersion || status.VNodes != DefaultVNodes {
		t.Errorf("status header = %+v", status)
	}
	if len(status.Shards) != 3 || status.Healthy != 2 {
		t.Fatalf("status = %+v, want 3 shards / 2 healthy", status)
	}
	for _, sh := range status.Shards {
		wantHealthy := sh.ID != "s2"
		if sh.Healthy != wantHealthy {
			t.Errorf("shard %s healthy = %v, want %v", sh.ID, sh.Healthy, wantHealthy)
		}
		if sh.ID == "s2" && sh.LastError == "" {
			t.Error("dead shard reports no last_error")
		}
	}
	if rec := tf.get(t, "/readyz"); rec.Code != http.StatusOK {
		t.Errorf("degraded fleet /readyz: status %d, want 200 (still serving)", rec.Code)
	}
}

// TestCoordinatorMetricsExport checks /metrics carries both the fleet
// registry and the process-wide core registry.
func TestCoordinatorMetricsExport(t *testing.T) {
	tf := bootFleet(t, 1, Options{})
	tf.get(t, "/api/suggest?q=salmon")
	rec := tf.get(t, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	var resp struct {
		Fleet struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"fleet"`
		Core struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"core"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Fleet.Counters["fleet.requests_total"] == 0 {
		t.Error("fleet.requests_total missing or zero")
	}
	if _, ok := resp.Fleet.Counters["fleet.shard.down"]; !ok {
		t.Error("fleet.shard.down not exported")
	}
}
