// Package navhttp is the navserver HTTP layer: a JSON API plus a
// minimal HTML browser, the web analogue of the user-study prototype.
// cmd/navserver wraps it in flags and a listener; internal/fleet boots
// it in-process to test coordinator routing against real shards.
//
// API:
//
//	GET /api/node?dim=0&path=0.2.1   the node at that child-index path
//	GET /api/suggest?dim=0&path=…&q=terms&k=5  ranked children for a query
//	GET /api/discover?dim=0&q=terms&k=10  tables most likely discovered by navigation
//	GET /api/search?q=terms&k=10     BM25 table search
//	POST /batch/suggest              {"queries":[{dim,path,q,k},…]} answered as one batch
//	POST /batch/search               {"queries":[{q,k},…]} answered as one batch
//	GET /healthz                     liveness (always 200 once listening)
//	GET /readyz                      readiness (503 until the organization is built)
//	GET /metrics                     JSON metrics (requests, latencies, build progress)
//	GET /admin/shard                 shard identity: id, serving generation, readiness
//	GET /                            HTML browser
//
// Query evaluation goes through internal/serve: each served
// organization is wrapped in an immutable snapshot whose quantized
// query-topic cache makes repeated and batched queries cheap, and whose
// generation stamp invalidates the shared cache wholesale on the atomic
// org swap. Cached answers are bit-identical to uncached ones. The
// batch endpoints fan their queries across the evaluator's bounded
// worker pool; -cache-size and httpx.MaxBatch bound both fast paths.
//
// The server is built to stay up: keyword search is served from the lake
// the moment the listener is open, while the organization — when not
// preloaded with -org — is constructed in the background and swapped in
// atomically once ready. Request handling is wrapped in panic recovery
// and a concurrency limit (503 on overload), the listener carries
// read/write/idle timeouts, and SIGINT/SIGTERM drain in-flight requests
// before exiting. A background build checkpoints to -checkpoint and a
// restart with -resume continues it rather than starting over.
package navhttp

import (
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lakenav"
	"lakenav/internal/httpx"
	"lakenav/internal/serve"
)

// Request validation bounds: dotted navigation paths, result counts and
// batch sizes are user input and must not be able to drive unbounded
// work. Path bounds are owned by internal/serve so the HTTP layer and
// the evaluator agree on them.
const (
	maxSearchK      = 1000
	defaultInflight = 64
)

type Server struct {
	search *lakenav.SearchEngine
	// snap is the serving snapshot, swapped in atomically when the
	// background build finishes (and on any future rebuild), so request
	// handlers never see a half-built organization and never block on
	// construction. Before the build lands the snapshot is not-ready:
	// search still works, navigation answers 503.
	snap atomic.Pointer[serve.Snapshot]
	// cache is the shared query-result cache surviving org swaps (each
	// swap's new snapshot generation invalidates old entries wholesale);
	// nil disables caching.
	cache *serve.Cache
	// sem bounds concurrently served requests; a full semaphore sheds
	// load with 503 instead of queueing without bound.
	sem chan struct{}
	// metrics is this server's registry, exported via /metrics.
	metrics *serverMetrics
	// hist retains recent ingest generations for /admin/generations and
	// rollback; nil when the server runs without a journal.
	hist *serve.History
	// genMu serializes generation swaps (ingest publishes vs. operator
	// rollbacks) so the history's current marker and the served
	// snapshot never disagree.
	genMu sync.Mutex
	// shardID tags this server as one shard of a fleet (empty when the
	// server runs standalone). It is reported by /admin/shard and the
	// /metrics export so a coordinator can tell shards apart.
	shardID string
}

// Options configures a Server; the zero value means a default-sized
// cache, default batch and inflight bounds, no ingest history, and no
// shard identity. Batches fan out over GOMAXPROCS workers.
type Options struct {
	// MaxInflight bounds concurrently served requests before shedding
	// with 503; non-positive selects the default.
	MaxInflight int
	// CacheSize is the cache entry capacity: 0 selects
	// serve.DefaultCacheSize, negative disables caching.
	CacheSize int
	// Generations, when positive, retains that many ingest generations
	// for /admin/generations and rollback (journal mode).
	Generations int
	// ShardID names this server within a fleet; empty for standalone.
	ShardID string
}

// New assembles a server over the lake's search engine. The snapshot
// starts not-ready: keyword search works immediately, navigation
// answers 503 until SetOrganization (or an ingest publish) lands.
func New(search *lakenav.SearchEngine, opts Options) *Server {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = defaultInflight
	}
	s := &Server{
		search:  search,
		sem:     make(chan struct{}, opts.MaxInflight),
		metrics: newServerMetrics(),
		shardID: opts.ShardID,
	}
	if opts.CacheSize >= 0 {
		s.cache = serve.NewCache(opts.CacheSize)
	}
	if opts.Generations > 0 {
		s.hist = serve.NewHistory(opts.Generations)
	}
	s.SetOrganization(nil) // not-ready snapshot: search works immediately
	return s
}

// SetOrganization wraps org in a fresh snapshot and swaps it in. The
// new snapshot's generation stamp makes every cache entry written under
// the previous organization unreachable, so in-flight and future
// requests only ever see answers computed against the organization they
// were routed to.
func (s *Server) SetOrganization(org *lakenav.Organization) {
	s.storeSnapshot(serve.NewSnapshot(org, s.search, serve.Config{Cache: s.cache}))
}

// storeSnapshot makes snap the serving snapshot and mirrors its
// generation stamp into the shard.generation gauge — the signal a
// fleet coordinator's health checker polls to notice org swaps.
func (s *Server) storeSnapshot(snap *serve.Snapshot) {
	s.snap.Store(snap)
	s.metrics.shardGen.Set(int64(snap.Generation()))
}

// snapshot returns the current serving snapshot (never nil).
func (s *Server) snapshot() *serve.Snapshot { return s.snap.Load() }

// organization returns the currently served organization, or nil while
// the background build is still running.
func (s *Server) organization() *lakenav.Organization { return s.snap.Load().Org() }

// Handler assembles the route table inside the middleware chain:
// panic recovery outermost, then request logging, then metrics (so
// shed responses are metered too), then load shedding (httpx.Limit's
// bypass rule keeps probes, /metrics and /admin/* answering).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/node", s.handleNode)
	mux.HandleFunc("/api/suggest", s.handleSuggest)
	mux.HandleFunc("/api/discover", s.handleDiscover)
	mux.HandleFunc("/api/search", s.handleSearch)
	mux.HandleFunc("/batch/suggest", s.handleBatchSuggest)
	mux.HandleFunc("/batch/search", s.handleBatchSearch)
	mux.HandleFunc("/admin/generations", s.handleGenerations)
	mux.HandleFunc("/admin/rollback", s.handleRollback)
	mux.HandleFunc("/admin/shard", s.handleShard)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/", s.handleIndex)
	return httpx.Recover(logware(s.metricsware(httpx.Limit(s.sem, s.metrics.shed, nil, mux))))
}

// ShardStatus is the /admin/shard response: the shard's fleet identity
// and its serving state, the per-shard signal a coordinator's health
// checker polls. Generation is the process-local snapshot stamp — it
// bumps on every org swap (build landing, ingest publish, rollback),
// so a change tells the coordinator that the shard's serve-layer cache
// was invalidated wholesale.
type ShardStatus struct {
	ShardID    string `json:"shard_id"`
	Generation uint64 `json:"generation"`
	Ready      bool   `json:"ready"`
}

func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	httpx.WriteJSON(w, ShardStatus{
		ShardID:    s.shardID,
		Generation: snap.Generation(),
		Ready:      snap.Ready(),
	})
}

// statusRecorder captures the status code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func logware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sr, r)
		log.Printf("%s %s %d %s", r.Method, r.URL.RequestURI(), sr.status, time.Since(start).Round(time.Microsecond))
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.organization() == nil {
		http.Error(w, "organization not built yet", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// parseDim validates the dim query parameter against the served
// organization. An absent parameter means dimension 0.
func parseDim(r *http.Request, org *lakenav.Organization) (int, error) {
	raw := r.URL.Query().Get("dim")
	if raw == "" {
		return 0, nil
	}
	dim, err := strconv.Atoi(raw)
	if err != nil || dim < 0 {
		return 0, fmt.Errorf("bad dim %q: want a non-negative integer", raw)
	}
	if dim >= org.Dimensions() {
		return 0, fmt.Errorf("dim %d out of range: organization has %d dimensions", dim, org.Dimensions())
	}
	return dim, nil
}

// parseK validates an optional k query parameter in [1, maxSearchK];
// absent returns def.
func parseK(r *http.Request, def int) (int, error) {
	raw := r.URL.Query().Get("k")
	if raw == "" {
		return def, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k <= 0 || k > maxSearchK {
		return 0, fmt.Errorf("bad k %q: want an integer in [1, %d]", raw, maxSearchK)
	}
	return k, nil
}

// requireOrg is the not-ready guard for navigation endpoints; search
// endpoints work straight off the lake and never need it.
func (s *Server) requireOrg(w http.ResponseWriter) *lakenav.Organization {
	org := s.organization()
	if org == nil {
		http.Error(w, "organization still building; try /api/search or retry shortly", http.StatusServiceUnavailable)
	}
	return org
}

// requireReady is requireOrg for handlers that already hold a snapshot:
// the guard and the evaluation must use the same snapshot, or a swap
// between them could turn a not-ready condition into a spurious 400.
func requireReady(w http.ResponseWriter, snap *serve.Snapshot) bool {
	if !snap.Ready() {
		http.Error(w, "organization still building; try /api/search or retry shortly", http.StatusServiceUnavailable)
		return false
	}
	return true
}

type nodeResponse struct {
	Here     lakenav.Node   `json:"here"`
	Depth    int            `json:"depth"`
	Dim      int            `json:"dim"`
	Children []lakenav.Node `json:"children"`
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	org := s.requireOrg(w)
	if org == nil {
		return
	}
	dim, err := parseDim(r, org)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	nav, err := serve.Navigate(org, dim, r.URL.Query().Get("path"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	httpx.WriteJSON(w, nodeResponse{
		Here:     nav.Here(),
		Depth:    nav.Depth(),
		Dim:      nav.Dimension(),
		Children: nav.Children(),
	})
}

func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	if !requireReady(w, snap) {
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q", http.StatusBadRequest)
		return
	}
	dim, err := parseDim(r, snap.Org())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	k, err := parseK(r, 0) // 0 = all children
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sugg, err := snap.Suggest(dim, r.URL.Query().Get("path"), q, k)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	httpx.WriteJSON(w, sugg)
}

// handleDiscover serves the table-discovery ranking: for a query, the
// probability each lake table is found by a navigation session. This is
// the endpoint whose reach sweep the serving cache amortizes.
func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	if !requireReady(w, snap) {
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q", http.StatusBadRequest)
		return
	}
	dim, err := parseDim(r, snap.Org())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	k, err := parseK(r, 10)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	disc, err := snap.Discover(dim, q, k)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	httpx.WriteJSON(w, disc)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q", http.StatusBadRequest)
		return
	}
	k, err := parseK(r, 10)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	httpx.WriteJSON(w, s.snapshot().Search(q, k))
}

func (s *Server) handleBatchSuggest(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	if !requireReady(w, snap) {
		return
	}
	reqs, ok := httpx.DecodeBatch[serve.SuggestRequest](w, r, httpx.MaxBatch)
	if !ok {
		return
	}
	results := snap.SuggestBatch(reqs)
	items := make([]httpx.SuggestItem, len(results))
	for i, res := range results {
		items[i].Suggestions = res.Suggestions
		if res.Err != nil {
			items[i].Error = res.Err.Error()
		}
	}
	httpx.WriteJSON(w, struct {
		Results []httpx.SuggestItem `json:"results"`
	}{items})
}

func (s *Server) handleBatchSearch(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	reqs, ok := httpx.DecodeBatch[serve.SearchRequest](w, r, httpx.MaxBatch)
	if !ok {
		return
	}
	// Validate per item (k bounds match /api/search); invalid items are
	// answered with an error, valid ones still go through the batch.
	valid := make([]serve.SearchRequest, 0, len(reqs))
	items := make([]httpx.SearchItem, len(reqs))
	slot := make([]int, 0, len(reqs))
	for i, req := range reqs {
		if req.Q == "" {
			items[i].Error = "missing q"
			continue
		}
		if req.K == 0 {
			req.K = 10
		}
		if req.K < 0 || req.K > maxSearchK {
			items[i].Error = fmt.Sprintf("bad k %d: want an integer in [1, %d]", req.K, maxSearchK)
			continue
		}
		valid = append(valid, req)
		slot = append(slot, i)
	}
	for i, res := range snap.SearchBatch(valid) {
		items[slot[i]].Tables = res.Tables
	}
	httpx.WriteJSON(w, struct {
		Results []httpx.SearchItem `json:"results"`
	}{items})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

const indexHTML = `<!doctype html>
<meta charset="utf-8">
<title>lakenav</title>
<style>
 body { font: 15px/1.5 system-ui, sans-serif; max-width: 48rem; margin: 2rem auto; padding: 0 1rem; }
 li { cursor: pointer; padding: .15rem 0; }
 li:hover { text-decoration: underline; }
 .leaf { color: #2a7; }
 #crumbs { color: #666; margin-bottom: .5rem; }
 input { width: 60%; padding: .3rem; }
</style>
<h1>lakenav</h1>
<div id="crumbs"></div>
<h2 id="label"></h2>
<ul id="children"></ul>
<p><input id="q" placeholder="rank choices against a query"> <button onclick="suggest()">suggest</button></p>
<script>
let path = [];
async function load() {
  const res = await fetch('/api/node?path=' + path.join('.'));
  if (res.status === 503) {
    document.getElementById('label').textContent = 'organization still building — retrying…';
    setTimeout(load, 2000);
    return;
  }
  const node = await res.json();
  document.getElementById('label').textContent = node.here.Label + ' (' + node.here.Attrs + ' attributes)';
  document.getElementById('crumbs').textContent = 'depth ' + node.depth + (path.length ? ' — click a node to descend, ⌫ to go up' : '');
  const ul = document.getElementById('children');
  ul.innerHTML = '';
  if (path.length) {
    const up = document.createElement('li');
    up.textContent = '⌫ up';
    up.onclick = () => { path.pop(); load(); };
    ul.appendChild(up);
  }
  (node.children || []).forEach((c, i) => {
    const li = document.createElement('li');
    li.textContent = c.Label + ' (' + c.Attrs + ')' + (c.IsLeaf ? ' — table ' + c.Table : '');
    if (c.IsLeaf) li.className = 'leaf';
    else li.onclick = () => { path.push(i); load(); };
    ul.appendChild(li);
  });
}
async function suggest() {
  const q = document.getElementById('q').value;
  if (!q) return;
  const res = await fetch('/api/suggest?q=' + encodeURIComponent(q) + '&path=' + path.join('.'));
  const ranked = await res.json();
  const ul = document.getElementById('children');
  ul.innerHTML = '';
  (ranked || []).forEach(s => {
    const li = document.createElement('li');
    li.textContent = (100 * s.Probability).toFixed(1) + '%  ' + s.Label;
    if (!s.IsLeaf) li.onclick = () => { path.push(s.Index); load(); };
    ul.appendChild(li);
  });
}
load();
</script>`
