package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"lakenav"
	"lakenav/internal/core"
	"lakenav/internal/embedding"
	"lakenav/internal/lake"
	"lakenav/internal/obs"
	"lakenav/internal/serve"
)

// construction accumulates the per-layer view of timed builds. The
// construction counters live in this process's obs.Default, so their
// deltas across one build are that build's work.
type construction struct {
	effectiveness                    []float64
	allocMB, searchMS, iterations    []float64
	iterationUS, acceptRatio         []float64
	reevaluate, revisited, leafEvals []float64
	parallelRuns, serialRuns         float64
}

// buildRecorder observes one build.
type buildRecorder struct {
	c      *construction
	traced bool
	before obs.Snapshot
	alloc0 float64

	mu     sync.Mutex
	finals []finalEvent // one closing progress event per dimension
}

type finalEvent struct {
	ev lakenav.ProgressEvent
	at time.Time
}

// begin starts observing a build. Every build, traced or not, starts
// from a collected heap, so one build's garbage is not charged to the
// next.
func (c *construction) begin(r *run) *buildRecorder {
	runtime.GC()
	b := &buildRecorder{c: c, traced: r.traced()}
	if b.traced {
		b.before = obs.Default.Snapshot()
		b.alloc0 = heapMB()
	}
	return b
}

// progress is the build's Config.Progress: nil when untraced, so the
// timed build carries no callback at all.
func (b *buildRecorder) progress() func(lakenav.ProgressEvent) {
	if !b.traced {
		return nil
	}
	return func(e lakenav.ProgressEvent) {
		if !e.Final {
			return
		}
		at := time.Now()
		b.mu.Lock()
		defer b.mu.Unlock()
		b.finals = append(b.finals, finalEvent{e, at})
	}
}

// end books a finished build and records its spans: the public
// Organize call, with each dimension's search, which run in parallel,
// as children.
func (b *buildRecorder) end(r *run, start time.Time, d time.Duration) {
	if !b.traced {
		return
	}
	c := b.c
	c.allocMB = append(c.allocMB, heapMB()-b.alloc0)
	after := obs.Default.Snapshot()
	delta := func(name string) float64 { return float64(after.Counters[name] - b.before.Counters[name]) }
	trace, root := r.tr.root("lakenav.organize", start, start.Add(d))
	var searchMS, iters, accepted float64
	for _, f := range b.finals {
		searchMS += f.ev.ElapsedMS
		iters += float64(f.ev.Iteration)
		accepted += float64(f.ev.Accepted)
		r.tr.add(trace, root, "core.search", f.at.Add(-time.Duration(f.ev.ElapsedMS*float64(time.Millisecond))), f.at)
	}
	c.searchMS = append(c.searchMS, searchMS)
	c.iterations = append(c.iterations, iters)
	if iters > 0 {
		c.iterationUS = append(c.iterationUS, searchMS*1000/iters)
		c.acceptRatio = append(c.acceptRatio, accepted/iters)
	}
	c.reevaluate = append(c.reevaluate, delta("core.evaluator.reevaluate_total"))
	c.revisited = append(c.revisited, delta("core.evaluator.states_revisited_total"))
	c.leafEvals = append(c.leafEvals, delta("core.evaluator.leaf_evals_total"))
	c.parallelRuns += delta("core.parallel.runs_total")
	c.serialRuns += delta("core.parallel.serial_runs_total")
}

func (c *construction) report(r *run) {
	r.set("core.search_ms", median(c.searchMS))
	r.set("core.iterations", median(c.iterations))
	r.set("core.iteration_us", median(c.iterationUS))
	r.set("core.accept_ratio", median(c.acceptRatio))
	r.set("core.evaluator.reevaluate", median(c.reevaluate))
	r.set("core.evaluator.states_revisited", median(c.revisited))
	r.set("core.evaluator.leaf_evals", median(c.leafEvals))
	if c.parallelRuns > 0 {
		r.set("core.parallel.fork_ratio", (c.parallelRuns-c.serialRuns)/c.parallelRuns)
	}
	r.set("core.effectiveness", median(c.effectiveness))
	r.set("core.build_alloc_mb", median(c.allocMB))
}

// constructionLayers times the construction phases the search does not
// report itself: topic derivation, the initial clustering (the same
// build with Optimize=false), and evaluator construction summed over
// the dimensions. seed is the build's organization seed.
func constructionLayers(r *run, lakePath string, seed int64) error {
	il, err := lake.LoadFile(lakePath)
	if err != nil {
		return err
	}
	// lakenav.NewLake's default embedding model.
	model := embedding.NewHashed(64, 1, 0.95)
	t0 := time.Now()
	il.ComputeTopics(model)
	r.set("lake.topics_ms", ms(time.Since(t0)))
	r.tr.root("lake.topics", t0, time.Now())

	l, err := lakenav.LoadJSON(lakePath)
	if err != nil {
		return err
	}
	cfg := orgConfig(seed)
	cfg.Optimize = false
	t0 = time.Now()
	if _, err := lakenav.OrganizeContext(context.Background(), l, cfg); err != nil {
		return fmt.Errorf("initial build: %w", err)
	}
	r.set("core.init_ms", ms(time.Since(t0)))
	r.tr.root("core.init", t0, time.Now())

	m, _, err := core.BuildMultiDimContext(context.Background(), il, core.MultiDimConfig{K: dimensions, Seed: seed, Parallel: true})
	if err != nil {
		return fmt.Errorf("initial build: %w", err)
	}
	var total time.Duration
	sp := r.tr.open("core.evaluators")
	for i, org := range m.Orgs {
		t0 := time.Now()
		if _, err := core.NewEvaluatorWorkers(org, cfg.RepFraction, rand.New(rand.NewSource(seed+int64(i))), 0); err != nil {
			return fmt.Errorf("evaluator: %w", err)
		}
		total += time.Since(t0)
		sp.child("core.new_evaluator", t0, time.Now())
	}
	sp.finish()
	r.set("core.new_evaluator_ms", ms(total))
	return nil
}

// coldstartLayers times, in process, the three steps a navserver takes
// before it can serve: load the lake, load org.bin over it, and index
// the lake for keyword search. Each is the median of three.
func coldstartLayers(r *run, lakePath, orgPath string) error {
	var lakeMS, orgMS, searchMS []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		l, err := lakenav.LoadJSON(lakePath)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := lakenav.LoadOrganization(l, orgPath); err != nil {
			return err
		}
		t2 := time.Now()
		lakenav.NewSearchEngine(l)
		t3 := time.Now()
		trace, root := r.tr.root("coldstart.load", t0, t3)
		r.tr.add(trace, root, "lake.load", t0, t1)
		r.tr.add(trace, root, "lakenav.load_organization", t1, t2)
		r.tr.add(trace, root, "textsearch.index", t2, t3)
		lakeMS = append(lakeMS, ms(t1.Sub(t0)))
		orgMS = append(orgMS, ms(t2.Sub(t1)))
		searchMS = append(searchMS, ms(t3.Sub(t2)))
	}
	r.set("coldstart.lake_load_ms", median(lakeMS))
	r.set("coldstart.org_load_ms", median(orgMS))
	r.set("coldstart.search_index_ms", median(searchMS))
	return nil
}

// reference is an in-process copy of what the servers serve.
type reference struct {
	org    *lakenav.Organization
	search *lakenav.SearchEngine
	snap   *serve.Snapshot // uncached: the answer checks' oracle
}

// loadReference loads the lake and org.bin the way navserver does.
func loadReference(lakePath, orgPath string) (*reference, error) {
	l, err := lakenav.LoadJSON(lakePath)
	if err != nil {
		return nil, err
	}
	org, err := lakenav.LoadOrganization(l, orgPath)
	if err != nil {
		return nil, err
	}
	search := lakenav.NewSearchEngine(l)
	return &reference{org: org, search: search, snap: serve.NewSnapshot(org, search, serve.Config{})}, nil
}

// checkServer sends a fixed sample of ops straight to a server and
// checks every answer against the reference.
func (r *run) checkServer(ref *reference, vocab []string, base string) {
	pop, err := newQueryPop(vocab, hotQueries, hotZipf, r.seed)
	if err != nil {
		r.fail(err)
		return
	}
	st := (&opGen{pop: pop, roots: rootChildren(ref.org)}).stream(r.seed, 99)
	t := &httpTarget{client: adminClient, base: base}
	c := &checker{snap: ref.snap}
	for i := 0; i < verifyEvery; i++ {
		o := st.next()
		status, hdr, body, err := t.do(&o)
		if out := classify(status, hdr, body, err); out != outOK {
			r.fail(fmt.Errorf("%s after restart: outcome %d (status %d, %v)", o.kind, out, status, err))
			return
		}
		if err := c.verify(&o, body); err != nil {
			r.fail(fmt.Errorf("after restart: %w", err))
			return
		}
	}
}

// replayLayers replays the head of the op stream in process, timing the
// public calls each request makes: the serve snapshot (with a cache as
// large as the server's), query embedding, the navigation kernels and
// BM25 search. Batches replay item by item.
func replayLayers(r *run, ref *reference, ops []op) {
	const maxOps = 800
	snap := serve.NewSnapshot(ref.org, ref.search, serve.Config{Cache: serve.NewCache(serve.DefaultCacheSize)})
	var hitUS, missUS, embedUS, discoverUS, suggestUS, searchUS []float64
	var sp openSpan
	timed := func(name string, f func()) float64 {
		t0 := time.Now()
		f()
		t1 := time.Now()
		sp.child(name, t0, t1)
		return float64(t1.Sub(t0).Nanoseconds()) / 1e3
	}
	hits := func() uint64 { return obs.Default.Snapshot().Counters["serve.cache.hits_total"] }
	for i := range ops[:min(len(ops), maxOps)] {
		o := &ops[i]
		sp = r.tr.open("replay." + o.kind.String())
		type item struct {
			kind    opKind
			dim     int
			path, q string
			k       int
		}
		var items []item
		switch o.kind {
		case opBatchSuggest:
			for _, it := range o.suggest {
				items = append(items, item{opSuggest, it.Dim, it.Path, it.Q, it.K})
			}
		case opBatchSearch:
			for _, it := range o.search {
				items = append(items, item{opSearch, 0, "", it.Q, it.K})
			}
		default:
			items = []item{{o.kind, o.dim, o.path, o.q, resultK}}
		}
		for _, it := range items {
			h0 := hits()
			var us float64
			switch it.kind {
			case opSuggest:
				us = timed("serve.suggest", func() { _, _ = snap.Suggest(it.dim, it.path, it.q, it.k) })
			case opDiscover:
				us = timed("serve.discover", func() { _, _ = snap.Discover(it.dim, it.q, it.k) })
			default:
				us = timed("serve.search", func() { snap.Search(it.q, it.k) })
			}
			if hits() > h0 {
				hitUS = append(hitUS, us)
			} else {
				missUS = append(missUS, us)
			}
			if it.kind == opSearch {
				searchUS = append(searchUS, timed("textsearch.search", func() { ref.search.Search(it.q, it.k) }))
				continue
			}
			var topic []float64
			var ok bool
			embedUS = append(embedUS, timed("embed.query_topic", func() { topic, ok = ref.org.QueryTopic(it.q) }))
			if !ok {
				continue
			}
			qt := serve.QuantizeTopic(topic)
			if it.kind == opDiscover {
				discoverUS = append(discoverUS, timed("core.discover_topic", func() { _, _ = ref.org.DiscoverTopic(it.dim, qt) }))
				continue
			}
			nav, err := serve.Navigate(ref.org, it.dim, it.path)
			if err != nil {
				r.fail(fmt.Errorf("replay: %w", err))
				return
			}
			suggestUS = append(suggestUS, timed("core.suggest_topic", func() { nav.SuggestTopic(qt) }))
		}
		sp.finish()
	}
	r.set("serve.hit_us", median(hitUS))
	r.set("serve.miss_us", median(missUS))
	r.set("embed.query_topic_us", median(embedUS))
	r.set("core.discover_topic_us", median(discoverUS))
	r.set("core.suggest_topic_us", median(suggestUS))
	r.set("textsearch.search_us", median(searchUS))
}

// serverScrape is one navserver's /metrics export.
type serverScrape struct {
	Server obs.Snapshot `json:"server"`
	Core   obs.Snapshot `json:"core"`
}

// scrape is the state of the fleet's counters at one moment.
type scrape struct {
	shards   []serverScrape
	logBytes int64
	fleet    obs.Snapshot
}

func takeScrape(f *fleetStack) (scrape, error) {
	var s scrape
	for _, p := range f.shards {
		var m serverScrape
		if err := getJSON(p.base+"/metrics", &m); err != nil {
			return s, err
		}
		s.shards = append(s.shards, m)
		s.logBytes += p.logBytes()
	}
	var m struct {
		Fleet obs.Snapshot `json:"fleet"`
	}
	if err := getJSON(f.coord.base+"/metrics", &m); err != nil {
		return s, err
	}
	s.fleet = m.Fleet
	return s, nil
}

// handlerRoutes maps the per-layer route names to navserver's routes.
var handlerRoutes = map[string]string{
	"suggest":       "/api/suggest",
	"discover":      "/api/discover",
	"search":        "/api/search",
	"batch_suggest": "/batch/suggest",
	"batch_search":  "/batch/search",
}

// serverLayers books the counter deltas between two scrapes: handler
// time per route from the http.latency_seconds histograms, log volume,
// the serve cache, and the coordinator's retries, hedges, shedding and
// batch fan-out.
func serverLayers(r *run, before, after scrape, coordBatches int) {
	sum := func(f func(serverScrape) float64) float64 {
		total := 0.0
		for i := range after.shards {
			total += f(after.shards[i]) - f(before.shards[i])
		}
		return total
	}
	for name, route := range handlerRoutes {
		h := "http.latency_seconds." + route
		n := sum(func(s serverScrape) float64 { return float64(s.Server.Histograms[h].Count) })
		secs := sum(func(s serverScrape) float64 { return s.Server.Histograms[h].Sum })
		if n > 0 {
			r.set("navhttp.handler_mean_ms."+name, secs*1000/n)
		}
	}
	reqs := sum(func(s serverScrape) float64 {
		total := 0.0
		for name, v := range s.Server.Counters {
			if strings.HasPrefix(name, "http.requests.") {
				total += float64(v)
			}
		}
		return total
	})
	if reqs > 0 {
		r.set("navhttp.log_bytes_per_req", float64(after.logBytes-before.logBytes)/reqs)
	}
	counter := func(name string) float64 {
		return sum(func(s serverScrape) float64 { return float64(s.Core.Counters[name]) })
	}
	hits, misses := counter("serve.cache.hits_total"), counter("serve.cache.misses_total")
	if hits+misses > 0 {
		r.set("serve.cache.hit_ratio", hits/(hits+misses))
	}
	r.set("serve.cache.evictions", counter("serve.cache.evictions_total"))

	fleetDelta := func(name string) float64 { return float64(after.fleet.Counters[name] - before.fleet.Counters[name]) }
	r.set("fleet.retries", fleetDelta("fleet.retries_total"))
	r.set("fleet.hedges", fleetDelta("fleet.hedges_total"))
	r.set("fleet.shed", fleetDelta("fleet.shed_total"))
	if coordBatches > 0 {
		r.set("fleet.subbatches_per_batch", fleetDelta("fleet.fanout.subbatches_total")/float64(coordBatches))
	}
}

// pairLayers replays 1 in verifyEvery single-item ops twice, through the
// coordinator and straight to the shard that owns them, once each way
// round so cache warmth favours neither, after one untimed direct send
// that fills the shard's cache. The difference is the fleet hop. Every
// pair also times an empty request (/healthz) straight to the shard:
// HTTP and middleware with no work.
func pairLayers(r *run, ops []op, f *fleetStack) error {
	client := newClient(1)
	var hops, wire []float64
	var sp openSpan
	timed := func(name string, t *httpTarget, o *op) (float64, error) {
		t0 := time.Now()
		status, _, _, err := t.do(o)
		t1 := time.Now()
		if err == nil && status != 200 {
			err = fmt.Errorf("%s: status %d", name, status)
		}
		sp.child(name, t0, t1)
		return ms(t1.Sub(t0)), err
	}
	for i := 0; i < len(ops); i += verifyEvery {
		o := &ops[i]
		if o.kind == opBatchSuggest || o.kind == opBatchSearch {
			continue
		}
		owner := f.owner(o)
		direct := &httpTarget{client: client, base: owner.base}
		sp = r.tr.open("lakebench.pair")
		if _, _, _, err := direct.do(o); err != nil {
			return err
		}
		w0 := time.Now()
		_, status, err := fetch(client, owner.base+"/healthz")
		sp.child("navhttp.healthz", w0, time.Now())
		if err != nil || status != 200 {
			return fmt.Errorf("healthz: status %d, %v", status, err)
		}
		wire = append(wire, ms(time.Since(w0)))
		via := &httpTarget{client: client, base: f.coord.base, withLake: true}
		var dc, dd float64
		var err1, err2 error
		if len(hops)%2 == 0 {
			dc, err1 = timed("fleet.request", via, o)
			dd, err2 = timed("navhttp.request", direct, o)
		} else {
			dd, err2 = timed("navhttp.request", direct, o)
			dc, err1 = timed("fleet.request", via, o)
		}
		if err1 != nil || err2 != nil {
			return fmt.Errorf("paired replay: %v, %v", err1, err2)
		}
		hops = append(hops, dc-dd)
		sp.finish()
	}
	r.set("navhttp.wire_p50_ms", median(wire))
	r.set("fleet.hop_p50_ms", median(hops))
	return nil
}
