package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lakenav/internal/httpx"
	"lakenav/internal/obs"
	"lakenav/internal/serve"
)

// Options tunes a Coordinator.
type Options struct {
	// MaxInflight bounds concurrently served requests before shedding
	// with 503 (body "overloaded", like navserver); non-positive
	// selects defaultCoordInflight.
	MaxInflight int
	// CheckInterval is the active health-probe period; non-positive
	// selects defaultCheckInterval.
	CheckInterval time.Duration
	// Client tunes the per-shard HTTP clients.
	Client ClientOptions
}

const (
	defaultCoordInflight  = 256
	defaultCheckInterval  = 2 * time.Second
	degradedHeader        = "X-Fleet-Degraded"
	unavailableBodyPrefix = "shard"
)

// Coordinator fronts a fleet of navserver shards: it owns the current
// shard map (swapped atomically, health loop per map), routes by
// placement key, fans out batches, and merges answers position-stably.
// It holds no result cache — placement stickiness keeps each shard's
// own generation-stamped cache hot, which is what makes per-shard
// invalidation free.
type Coordinator struct {
	opts  Options
	state atomic.Pointer[fleetState]
	sem   chan struct{}
	m     *coordMetrics
}

// fleetState is one immutable generation of fleet configuration: the
// map, the ring built from it, one client per shard, and the health
// loop that probes them. SetMap builds a new one and retires the old.
type fleetState struct {
	m       *ShardMap
	ring    *Ring
	clients map[string]*shardClient
	order   []string // sorted shard ids, for stable status output
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// New builds a Coordinator with no shard map; requests are answered
// 503 until SetMap installs one.
func New(opts Options) *Coordinator {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = defaultCoordInflight
	}
	if opts.CheckInterval <= 0 {
		opts.CheckInterval = defaultCheckInterval
	}
	return &Coordinator{
		opts: opts,
		sem:  make(chan struct{}, opts.MaxInflight),
		m:    newCoordMetrics(),
	}
}

// SetMap installs a shard map: it validates, builds the ring and
// clients, starts the new health loop, swaps the state in atomically,
// and then stops and joins the previous state's loop. In-flight
// requests keep the state they started with.
func (c *Coordinator) SetMap(ctx context.Context, m *ShardMap) error {
	if err := m.Validate(); err != nil {
		return err
	}
	st := &fleetState{
		m:       m,
		ring:    NewRing(m.IDs(), m.VNodes),
		clients: make(map[string]*shardClient, len(m.Shards)),
		order:   m.IDs(),
	}
	for _, info := range m.Shards {
		st.clients[info.ID] = newShardClient(info, c.opts.Client, c.m)
	}
	hctx, cancel := context.WithCancel(ctx)
	st.cancel = cancel
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		c.healthLoop(hctx, st)
	}()
	old := c.state.Swap(st)
	c.retire(old)
	return nil
}

// Close stops the health loop and detaches the current map; subsequent
// requests are answered 503.
func (c *Coordinator) Close() {
	c.retire(c.state.Swap(nil))
}

func (c *Coordinator) retire(st *fleetState) {
	if st == nil {
		return
	}
	st.cancel()
	st.wg.Wait()
}

// healthLoop actively probes every shard in st on a fixed period. One
// immediate sweep runs first so /admin/fleet and /readyz are accurate
// right after a map swap, not one interval later.
func (c *Coordinator) healthLoop(ctx context.Context, st *fleetState) {
	c.sweep(ctx, st)
	t := time.NewTicker(c.opts.CheckInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.sweep(ctx, st)
		}
	}
}

func (c *Coordinator) sweep(ctx context.Context, st *fleetState) {
	for _, id := range st.order {
		if ctx.Err() != nil {
			return
		}
		st.clients[id].checkHealth(ctx)
	}
	c.m.healthy.Set(int64(st.healthyCount()))
}

func (st *fleetState) healthyCount() int {
	n := 0
	for _, cl := range st.clients {
		if !cl.down.Load() {
			n++
		}
	}
	return n
}

// Handler assembles the coordinator's routes behind panic recovery,
// the request counter, and httpx.Limit's load shedding (probes,
// /metrics and /admin/* bypass it).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/node", c.proxyNav)
	mux.HandleFunc("/api/suggest", c.proxyNav)
	mux.HandleFunc("/api/discover", c.proxyNav)
	mux.HandleFunc("/api/search", c.proxySearch)
	mux.HandleFunc("/batch/suggest", c.handleBatchSuggest)
	mux.HandleFunc("/batch/search", c.handleBatchSearch)
	mux.HandleFunc("/admin/fleet", c.handleFleet)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", c.handleReady)
	mux.HandleFunc("/metrics", c.handleMetrics)
	limited := httpx.Limit(c.sem, c.m.shed, c.m.inflight, mux)
	return httpx.Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.m.requests.Inc()
		limited.ServeHTTP(w, r)
	}))
}

// currentState answers nil — and a 503 when w is non-nil — while no
// shard map is installed.
func (c *Coordinator) currentState(w http.ResponseWriter) *fleetState {
	st := c.state.Load()
	if st == nil && w != nil {
		http.Error(w, "no shard map installed", http.StatusServiceUnavailable)
	}
	return st
}

// proxyNav forwards one navigation request (/api/node, /api/suggest,
// /api/discover) to the shard owning (lake, dim). The lake parameter is
// the coordinator's own routing input and is stripped before
// forwarding — shards are the plain navserver binary and reject
// parameters they do not know.
func (c *Coordinator) proxyNav(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	lake := q.Get("lake")
	// Routing parses dim best-effort: a malformed dim routes like dim 0
	// and the owning shard renders the authoritative 400.
	dim, _ := strconv.Atoi(q.Get("dim"))
	c.proxy(w, r, NavKey(lake, dim))
}

// proxySearch forwards /api/search to the shard owning (lake, q).
func (c *Coordinator) proxySearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	c.proxy(w, r, SearchKey(q.Get("lake"), q.Get("q")))
}

func (c *Coordinator) proxy(w http.ResponseWriter, r *http.Request, key string) {
	st := c.currentState(w)
	if st == nil {
		return
	}
	cl := st.clients[st.ring.Place(key)]
	q := r.URL.Query()
	q.Del("lake")
	path := r.URL.Path
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	c.m.proxied.Inc()
	res := cl.do(r.Context(), http.MethodGet, path, nil)
	if res.err != nil {
		// Degraded, not failed: the 503 body names the shard so a
		// client (and lakeload's accounting) can tell routed
		// unavailability from the coordinator's own load shedding.
		http.Error(w, fmt.Sprintf("%s %s unavailable: %v", unavailableBodyPrefix, cl.id, res.err), http.StatusServiceUnavailable)
		return
	}
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	w.WriteHeader(res.status)
	if _, err := w.Write(res.body); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		log.Printf("lakecoord: write: %v", err)
	}
}

// suggestQuery is one /batch/suggest item on the coordinator's wire:
// the navserver item plus the routing-only lake id.
type suggestQuery struct {
	Lake string `json:"lake"`
	serve.SuggestRequest
}

// searchQuery is one /batch/search item on the coordinator's wire.
type searchQuery struct {
	Lake string `json:"lake"`
	serve.SearchRequest
}

func (c *Coordinator) handleBatchSuggest(w http.ResponseWriter, r *http.Request) {
	st := c.currentState(w)
	if st == nil {
		return
	}
	queries, ok := httpx.DecodeBatch[suggestQuery](w, r, httpx.MaxBatch)
	if !ok {
		return
	}
	keys := make([]string, len(queries))
	payload := make([]any, len(queries))
	for i, q := range queries {
		keys[i] = NavKey(q.Lake, q.Dim)
		payload[i] = q.SuggestRequest
	}
	c.fanOut(w, r, st, "/batch/suggest", keys, payload, func(msg string) any { return httpx.SuggestItem{Error: msg} })
}

func (c *Coordinator) handleBatchSearch(w http.ResponseWriter, r *http.Request) {
	st := c.currentState(w)
	if st == nil {
		return
	}
	queries, ok := httpx.DecodeBatch[searchQuery](w, r, httpx.MaxBatch)
	if !ok {
		return
	}
	keys := make([]string, len(queries))
	payload := make([]any, len(queries))
	for i, q := range queries {
		keys[i] = SearchKey(q.Lake, q.Q)
		payload[i] = q.SearchRequest
	}
	c.fanOut(w, r, st, "/batch/search", keys, payload, func(msg string) any { return httpx.SearchItem{Error: msg} })
}

// fanOut is the batch scatter/gather: group items by owning shard,
// POST each group as a sub-batch concurrently, and scatter the raw
// response items back into their original positions. A failed shard
// degrades exactly its own items to error answers (counted in the
// X-Fleet-Degraded header and the degraded counter); the merged
// response is always a 200.
//
// Response items travel as json.RawMessage end to end, so when every
// shard answers, the merged body is byte-identical to what one
// navserver would have produced for the same batch.
func (c *Coordinator) fanOut(w http.ResponseWriter, r *http.Request, st *fleetState,
	path string, keys []string, payload []any, errItem func(msg string) any) {

	type group struct {
		indices []int
		queries []any
	}
	groups := make(map[string]*group)
	for i, key := range keys {
		id := st.ring.Place(key)
		g := groups[id]
		if g == nil {
			g = &group{}
			groups[id] = g
		}
		g.indices = append(g.indices, i)
		g.queries = append(g.queries, payload[i])
	}

	// Items are shard answers (json.RawMessage) or degraded answers in
	// the shard's own httpx item type.
	results := make([]any, len(keys))
	var degraded atomic.Int64
	degrade := func(g *group, msg string) {
		item := errItem(msg)
		for _, i := range g.indices {
			results[i] = item
		}
		degraded.Add(int64(len(g.indices)))
		c.m.degraded.Add(uint64(len(g.indices)))
	}
	var wg sync.WaitGroup
	for id, g := range groups {
		wg.Add(1)
		c.m.fanout.Inc()
		go func(cl *shardClient, g *group) {
			defer wg.Done()
			body, err := json.Marshal(struct {
				Queries []any `json:"queries"`
			}{g.queries})
			if err != nil {
				degrade(g, "encode sub-batch: "+err.Error())
				return
			}
			res := cl.do(r.Context(), http.MethodPost, path, body)
			if res.err != nil {
				degrade(g, fmt.Sprintf("%s %s unavailable: %v", unavailableBodyPrefix, cl.id, res.err))
				return
			}
			if res.status != http.StatusOK {
				degrade(g, fmt.Sprintf("%s %s: status %d: %s", unavailableBodyPrefix, cl.id, res.status, trim(res.body)))
				return
			}
			var resp struct {
				Results []json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(res.body, &resp); err != nil {
				degrade(g, fmt.Sprintf("%s %s: bad response: %v", unavailableBodyPrefix, cl.id, err))
				return
			}
			if len(resp.Results) != len(g.indices) {
				degrade(g, fmt.Sprintf("%s %s: %d answers for %d queries", unavailableBodyPrefix, cl.id, len(resp.Results), len(g.indices)))
				return
			}
			// Scatter: goroutines write disjoint slice elements, so no
			// further synchronization is needed beyond the WaitGroup.
			for j, i := range g.indices {
				results[i] = resp.Results[j]
			}
		}(st.clients[id], g)
	}
	wg.Wait()

	if n := degraded.Load(); n > 0 {
		w.Header().Set(degradedHeader, strconv.FormatInt(n, 10))
	}
	httpx.WriteJSON(w, struct {
		Results []any `json:"results"`
	}{results})
}

// trim bounds a shard error body for embedding in an item error.
func trim(b []byte) string {
	const max = 200
	s := string(b)
	if len(s) > max {
		s = s[:max] + "…"
	}
	for len(s) > 0 && (s[len(s)-1] == '\n' || s[len(s)-1] == '\r') {
		s = s[:len(s)-1]
	}
	return s
}

// FleetShard is one shard's row in the /admin/fleet status.
type FleetShard struct {
	ID         string `json:"id"`
	Addr       string `json:"addr"`
	Healthy    bool   `json:"healthy"`
	Generation uint64 `json:"generation"`
	LastError  string `json:"last_error,omitempty"`
}

// FleetStatus is the /admin/fleet response.
type FleetStatus struct {
	MapVersion int          `json:"map_version"`
	VNodes     int          `json:"vnodes"`
	Healthy    int          `json:"healthy"`
	Shards     []FleetShard `json:"shards"`
}

// Status snapshots the fleet for /admin/fleet; exported so tests and
// tools can read it without HTTP.
func (c *Coordinator) Status() (FleetStatus, bool) {
	st := c.currentState(nil)
	if st == nil {
		return FleetStatus{}, false
	}
	vnodes := st.m.VNodes
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	out := FleetStatus{MapVersion: st.m.Version, VNodes: vnodes}
	addr := make(map[string]string, len(st.m.Shards))
	for _, s := range st.m.Shards {
		addr[s.ID] = s.Addr
	}
	for _, id := range st.order {
		cl := st.clients[id]
		healthy := !cl.down.Load()
		if healthy {
			out.Healthy++
		}
		out.Shards = append(out.Shards, FleetShard{
			ID:         id,
			Addr:       addr[id],
			Healthy:    healthy,
			Generation: cl.gen.Load(),
			LastError:  cl.lastError(),
		})
	}
	sort.Slice(out.Shards, func(i, j int) bool { return out.Shards[i].ID < out.Shards[j].ID })
	return out, true
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	status, ok := c.Status()
	if !ok {
		http.Error(w, "no shard map installed", http.StatusServiceUnavailable)
		return
	}
	httpx.WriteJSON(w, status)
}

// handleReady reports ready once a map is installed and at least one
// shard is healthy — a degraded fleet still serves.
func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	status, ok := c.Status()
	if !ok || status.Healthy == 0 {
		http.Error(w, "no healthy shards", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics exports the coordinator registry next to the
// process-wide core registry, mirroring navserver's /metrics shape.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	httpx.WriteJSON(w, struct {
		Fleet obs.Snapshot `json:"fleet"`
		Core  obs.Snapshot `json:"core"`
	}{c.m.reg.Snapshot(), obs.Default.Snapshot()})
}
