package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"lakenav"
	"lakenav/internal/fleet"
)

// Serving workload settings. Queries are pairs of words from the lake's
// value vocabulary: serve-hot draws them Zipf(1.1) from 256, a working
// set that fits each shard's 4096-entry cache; serve-cold draws them
// uniformly from 50,000, so the cache almost always misses.
const (
	hotQueries  = 256
	hotZipf     = 1.1
	coldQueries = 50000
	warmup      = 2 * time.Second
	fleetShards = 2
)

// Open-loop request rates, frozen at about a sixth of each workload's
// closed-loop goodput on the commit that added the benchmark, on a quiet
// 2-CPU host. Slow spells of a shared host cut goodput to a quarter of
// that: at a quarter of goodput the open loop then offered more than
// the fleet could serve (serve-hot p50 0.5 → 8 ms). Far below, the CPUs
// idle between requests and every hop waits for one to wake: at 400/s
// serve-hot's round p50s spread over 0.51-0.79 ms, at 1200/s (all but
// one) over 0.44-0.58 ms, in alternating runs.
const (
	hotRate  = 800
	coldRate = 350
)

// serveInputs are what a serving workload's servers load: the lake and
// its organization in binary form, and the in-process reference copy
// the answer checks compare against.
type serveInputs struct {
	lake    *lakeInput
	orgPath string
	ref     *reference
}

// servingSeed fixes the lake and organization every serving run serves;
// --seed draws only the traffic. With a lake per seed, serve-hot's p50
// varied 15% between seeds against 6% between runs of one seed: the
// organization's shape (how many children a suggest ranks and returns)
// changed the work per request. Construction over many lakes is the
// build workload's job.
const servingSeed = 1

// prepareServe generates the serving lake, builds its organization and
// writes both as the servers' inputs. This is input generation, not
// set-up: the build workload times construction.
func prepareServe(r *run) (*serveInputs, error) {
	lakePath := filepath.Join(r.work, "lake.bin")
	in, err := makeLake(lakePath, lakenav.FormatBin, servingSeed, 0)
	if err != nil {
		return nil, err
	}
	var cons construction
	rec := cons.begin(r)
	t0 := time.Now()
	l, org, err := organize(lakePath, servingSeed, rec.progress())
	if err != nil {
		return nil, err
	}
	rec.end(r, t0, time.Since(t0))
	cons.effectiveness = append(cons.effectiveness, org.Effectiveness())
	orgPath := filepath.Join(r.work, "org.bin")
	if err := validate(l, org, orgPath); err != nil {
		return nil, err
	}
	ref, err := loadReference(lakePath, orgPath)
	if err != nil {
		return nil, err
	}
	if r.traced() {
		cons.report(r)
		if err := constructionLayers(r, lakePath, servingSeed); err != nil {
			return nil, err
		}
		if err := coldstartLayers(r, lakePath, orgPath); err != nil {
			return nil, err
		}
	}
	return &serveInputs{lake: in, orgPath: orgPath, ref: ref}, nil
}

// fleetStack is lakecoord in front of navserver replicas that all serve
// the same organization.
type fleetStack struct {
	shards []*proc
	ids    []string
	coord  *proc
	ring   *fleet.Ring
}

func newFleet(r *run, in *serveInputs) (*fleetStack, error) {
	f := &fleetStack{}
	m := fleet.ShardMap{Version: fleet.ShardMapVersion}
	for i := 0; i < fleetShards; i++ {
		id := fmt.Sprintf("s%d", i)
		p, err := r.newProc(id, r.bins.navserver, "-lake", in.lake.path, "-org", in.orgPath, "-shard-id", id)
		if err != nil {
			return nil, err
		}
		f.shards = append(f.shards, p)
		f.ids = append(f.ids, id)
		m.Shards = append(m.Shards, fleet.ShardInfo{ID: id, Addr: p.base})
	}
	mapPath := filepath.Join(r.work, "fleet.json")
	if err := os.WriteFile(mapPath, mustJSON(m), 0o644); err != nil {
		return nil, err
	}
	coord, err := r.newProc("lakecoord", r.bins.lakecoord, "-map", mapPath, "-check-interval", "200ms")
	if err != nil {
		return nil, err
	}
	f.coord = coord
	f.ring = fleet.NewRing(m.IDs(), m.VNodes)
	return f, nil
}

// boot starts the shards, waits until each serves its organization,
// then starts the coordinator and waits until it sees every shard
// healthy.
func (f *fleetStack) boot() error {
	for _, p := range f.shards {
		if err := p.start(); err != nil {
			return err
		}
	}
	for _, p := range f.shards {
		if err := p.waitReady(time.Minute); err != nil {
			return err
		}
	}
	if err := f.coord.start(); err != nil {
		return err
	}
	return f.coord.waitFor("/admin/fleet", time.Minute, func(body []byte) bool {
		var st fleet.FleetStatus
		return json.Unmarshal(body, &st) == nil && st.Healthy == len(f.shards)
	})
}

// owner is the shard the coordinator routes a single-item op to.
func (f *fleetStack) owner(o *op) *proc {
	key := fleet.NavKey(o.lake, o.dim)
	if o.kind == opSearch {
		key = fleet.SearchKey(o.lake, o.q)
	}
	id := f.ring.Place(key)
	for i, s := range f.ids {
		if s == id {
			return f.shards[i]
		}
	}
	return nil
}

func (f *fleetStack) stop() {
	f.coord.stop()
	for _, p := range f.shards {
		p.stop()
	}
}

// peakRSSMB sums the peak resident sets of every server process.
func peakRSSMB(ps ...*proc) (float64, error) {
	total := 0.0
	for _, p := range ps {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// timeSetups boots a stack three times; setup_s is the median. The
// first two boots are stopped again, the third stays up to serve the
// measurement.
func (r *run) timeSetups(boot func() error, stop func()) error {
	var times []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := boot(); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		if r.traced() {
			r.tr.root("lakebench.setup", t0, time.Now())
		}
		if i < 2 {
			stop()
		}
	}
	r.set("setup_s", median(times))
	return nil
}

func runServeHot(r *run) error  { return runFleet(r, hotQueries, hotZipf, hotRate) }
func runServeCold(r *run) error { return runFleet(r, coldQueries, 0, coldRate) }

// runFleet drives serve-hot and serve-cold: the op mix through lakecoord
// to two navserver replicas, every 64th answer checked.
func runFleet(r *run, queries int, zipf, rate float64) error {
	in, err := prepareServe(r)
	if err != nil {
		return err
	}
	pop, err := newQueryPop(in.lake.vocab, queries, zipf, r.seed)
	if err != nil {
		return err
	}
	gen := &opGen{pop: pop, roots: rootChildren(in.ref.org), lakes: fleetLakes}
	// A spare navserver with a shard's inputs, outside the fleet, times
	// recovery: it is killed and restarted after every other round, when
	// no load runs, so its samples spread over the whole run.
	spare, err := r.newProc("spare", r.bins.navserver, "-lake", in.lake.path, "-org", in.orgPath)
	if err != nil {
		return err
	}
	if err := spare.start(); err != nil {
		return err
	}
	if err := spare.waitReady(time.Minute); err != nil {
		return err
	}
	f, err := newFleet(r, in)
	if err != nil {
		return err
	}
	if err := r.timeSetups(f.boot, f.stop); err != nil {
		return err
	}
	var recoveries []float64
	afterRound := func(k int) error {
		if k%2 == 0 {
			return nil
		}
		s, err := r.timeRecovery(spare)
		recoveries = append(recoveries, s)
		return err
	}
	ops, err := r.serveLoad(gen, f, rate, &checker{snap: in.ref.snap}, afterRound)
	if err != nil {
		return err
	}
	if len(recoveries) == 0 {
		if err := afterRound(1); err != nil {
			return err
		}
	}
	r.set("recovery_s", median(recoveries))
	rss, err := peakRSSMB(append([]*proc{f.coord}, f.shards...)...)
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	if r.traced() {
		if err := pairLayers(r, ops, f); err != nil {
			return err
		}
		replayLayers(r, in.ref, ops)
	}
	r.checkServer(in.ref, in.lake.vocab, spare.base)
	return nil
}

// round is one round of measured load: an open-loop block, then a
// closed-loop block.
type round struct{ open, closed []sample }

// serveLoad warms the fleet up, then measures r.rounds() rounds, each an
// open loop at rate from r.nproc senders followed by a closed loop on
// r.nproc connections, all through the coordinator; afterRound runs
// after each round, outside the load. It checks the kept answers and
// returns the open-loop ops.
func (r *run) serveLoad(gen *opGen, f *fleetStack, rate float64, check *checker, afterRound func(k int) error) ([]op, error) {
	// The load generator shares the CPUs with the servers; collecting
	// its garbage less often keeps it out of their way.
	debug.SetGCPercent(400)
	t := &httpTarget{client: newClient(r.nproc), base: f.coord.base, withLake: true}
	streams := func(first int) []*opStream {
		s := make([]*opStream, r.nproc)
		for w := range s {
			s[w] = gen.stream(r.seed, first+w)
		}
		return s
	}
	runClosed(realClock{}, streams(100), warmup, t.send)

	n, openDur, closedDur := r.rounds()
	r.rates = fmt.Sprintf("open_rps=%.0f rounds=%d open_s=%.2f closed_s=%.2f conns=%d", rate, n, openDur.Seconds(), closedDur.Seconds(), r.nproc)
	st, closedStreams := gen.stream(r.seed, 0), streams(1)
	ops := make([]op, n*int(rate*openDur.Seconds()))
	for i := range ops {
		ops[i] = st.next()
	}

	var before scrape
	if r.traced() {
		var err error
		if before, err = takeScrape(f); err != nil {
			return nil, err
		}
	}
	rounds := make([]round, n)
	per := len(ops) / n
	for k := range rounds {
		rounds[k].open = runOpen(realClock{}, ops[k*per:(k+1)*per], rate, r.nproc, t.send)
		rounds[k].closed = runClosed(realClock{}, closedStreams, closedDur, t.send)
		if err := afterRound(k); err != nil {
			return nil, err
		}
	}

	checked, wrong := 0, 0
	var firstWrong error
	for k := range rounds {
		for _, phase := range [][]sample{rounds[k].open, rounds[k].closed} {
			c, w, first := check.verifySamples(phase)
			checked, wrong = checked+c, wrong+w
			if firstWrong == nil {
				firstWrong = first
			}
		}
	}
	r.logf("checked %d answers, %d wrong", checked, wrong)
	if firstWrong != nil {
		r.fail(firstWrong)
	}

	p50s, goodputs := roundStats(rounds, openDur, closedDur)
	var open, closed []sample
	for _, rd := range rounds {
		open, closed = append(open, rd.open...), append(closed, rd.closed...)
	}
	to, tc := count(open), count(closed)
	r.tally.add(to)
	r.tally.add(tc)
	r.logf("open loop: %d requests, %d failed %v; closed loop: %d requests, %d failed %v", to.attempted, to.failed, to.byOutcome, tc.attempted, tc.failed, tc.byOutcome)
	lat := latencies(open, openDur)
	r.set("p50_ms", median(p50s))
	r.set("goodput_per_s", median(goodputs))
	r.logf("open loop: p50 %.3fms p90 %.3fms p99 %.3fms over %d requests (p%g is the highest percentile with 10 beyond it)",
		median(lat), quantile(lat, 0.90), quantile(lat, 0.99), len(lat), tailPercentile(len(lat)))
	r.logf("per round: p50 %.3v ms, goodput %.4v /s", p50s, goodputs)

	if r.traced() {
		after, err := takeScrape(f)
		if err != nil {
			return nil, err
		}
		batches := 0
		for _, phase := range [][]sample{open, closed} {
			for i := range phase {
				s := &phase[i]
				if s.kind == opBatchSuggest || s.kind == opBatchSearch {
					batches++
				}
				r.tr.root("client."+s.kind.String(), s.sent, s.done)
			}
		}
		serverLayers(r, before, after, batches)
		lags := make([]float64, len(open))
		for i := range open {
			lags[i] = open[i].lagMS()
		}
		r.set("lakebench.gen_lag_p99_ms", quantile(lags, 0.99))
		r.set("lakebench.traced_p50_ms", median(p50s))
		r.set("lakebench.p90_ms", quantile(lat, 0.90))
		r.set("lakebench.p99_ms", quantile(lat, 0.99))
	}
	return ops, nil
}

// roundStats returns each round's open-loop median latency and
// closed-loop goodput: answers per second that succeeded within the
// latency limit.
func roundStats(rounds []round, openDur, closedDur time.Duration) (p50s, goodputs []float64) {
	for _, rd := range rounds {
		p50s = append(p50s, median(latencies(rd.open, openDur)))
		goodputs = append(goodputs, float64(count(rd.closed).good)/closedDur.Seconds())
	}
	return p50s, goodputs
}
