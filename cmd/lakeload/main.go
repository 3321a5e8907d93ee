// Command lakeload is a deterministic load generator for navserver: the
// measurement harness behind the serving soaks.
//
//	lakeload -addr http://localhost:8080 [-workers 8] [-duration 10s]
//	         [-seed 1] [-lakes 0] [-out requests.ndjson]
//	         [-fail-on-error] [-fail-on-degraded]
//
// -workers goroutines each issue requests back-to-back: a closed loop,
// throughput set by service latency. The operation schedule — which
// endpoint, which query, which path, which k — is derived entirely
// from -seed through a xorshift64* generator and a Zipf(1.1) mix over
// 64 queries, so two runs against the same server replay
// byte-identical request streams; only timing differs. The query
// population is skewed (Zipf) the way interactive exploration is,
// which is exactly the shape the server's query-topic cache exploits.
// Before starting, lakeload waits up to 30s for /readyz; a server that
// never becomes ready gets search-only load.
//
// Every request becomes one NDJSON record on -out (worker, operation,
// status, latency, shed flag) and the run ends with a JSON summary on
// stdout: counts by operation and status, shed totals, latency
// quantiles, and achieved throughput. A 503 whose body is the
// navserver's load-shedding response "overloaded" is counted as shed —
// deliberate back-pressure, not failure; with -fail-on-error any other
// non-2xx response fails the run, which is the CI soak gate.
//
// Transport errors — connection refused or reset, as during a server
// restart — are retried twice with jittered exponential backoff from
// 50ms. HTTP responses never retry. A request that recovers within its
// budget counts normally and its extra attempts are tallied as
// retries; one that exhausts the budget counts as a net error, so the
// summary keeps retried recoveries, shed 503s, and failures as three
// separate quantities.
//
// Against a fleet coordinator (cmd/lakecoord), -lakes N spreads the
// schedule over N synthetic lake ids so requests fan out across
// shards. Coordinator degradation — a 503 whose body names an
// unavailable shard, or a 200 batch carrying the X-Fleet-Degraded
// header — is booked separately from both shed 503s and transport
// errors: the summary reports degraded responses and degraded items,
// -fail-on-error ignores them, and -fail-on-degraded gates on them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The fixed shape of the schedule and the transport-retry budget. The
// fleet soak's zero-transport-error gate relies on the retry budget
// absorbing a shard restart's connection resets.
const (
	zipfS     = 1.1
	queries   = 64
	resultK   = 10
	batchSize = 16
	waitReady = 30 * time.Second
	retries   = 2
	retryBase = 50 * time.Millisecond
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "navserver base URL")
	workers := flag.Int("workers", 8, "concurrent workers")
	duration := flag.Duration("duration", 10*time.Second, "how long to generate load")
	seed := flag.Int64("seed", 1, "schedule seed; same seed replays the same request stream")
	out := flag.String("out", "", "write per-request NDJSON records to this file")
	failOnError := flag.Bool("fail-on-error", false, "exit 1 on any non-2xx response that is not a deliberate shed 503 or a coordinator-degraded answer")
	failOnDegraded := flag.Bool("fail-on-degraded", false, "exit 1 when any response or batch item was coordinator-degraded (dead shard)")
	lakes := flag.Int("lakes", 0, "spread requests over this many synthetic lake ids (fleet mode); 0 sends no lake parameter")
	flag.Parse()

	if _, err := url.Parse(*addr); err != nil {
		log.Fatal("lakeload: bad -addr: ", err)
	}
	var sink io.Writer
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal("lakeload: ", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Print("lakeload: close -out: ", err)
			}
		}()
		bw := bufio.NewWriter(f)
		defer func() {
			if err := bw.Flush(); err != nil {
				log.Print("lakeload: flush -out: ", err)
			}
		}()
		sink = bw
	}

	client := &http.Client{Timeout: 30 * time.Second}
	probe, err := probeServer(client, *addr, waitReady)
	if err != nil {
		log.Fatal("lakeload: ", err)
	}
	if probe.Ready {
		log.Printf("server ready: %d root children in dimension 0", probe.RootChildren)
	} else {
		log.Print("organization not ready; generating search-only load")
	}

	gen, err := newOpGen(opGenConfig{
		Seed:         *seed,
		Queries:      queries,
		ZipfS:        zipfS,
		K:            resultK,
		BatchSize:    batchSize,
		RootChildren: probe.RootChildren,
		NavReady:     probe.Ready,
		Lakes:        *lakes,
	})
	if err != nil {
		log.Fatal("lakeload: ", err)
	}

	runner := &runner{
		client:    client,
		base:      strings.TrimRight(*addr, "/"),
		records:   newRecorder(sink),
		retries:   retries,
		retryBase: retryBase,
	}
	start := time.Now()
	runner.runClosed(gen, *workers, *duration)
	elapsed := time.Since(start)

	sum := runner.records.summarize(elapsed)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		log.Fatal("lakeload: ", err)
	}
	if *failOnError && sum.Failures > 0 {
		log.Fatalf("lakeload: %d failing responses (non-2xx, excluding shed and degraded)", sum.Failures)
	}
	if *failOnDegraded && (sum.Degraded > 0 || sum.DegradedItems > 0) {
		log.Fatalf("lakeload: %d degraded responses, %d degraded batch items", sum.Degraded, sum.DegradedItems)
	}
}

// probeResult is what the startup probe learned about the server.
type probeResult struct {
	// Ready reports whether /readyz answered 200 within the wait budget.
	Ready bool
	// RootChildren is dimension 0's root branching factor, the basis for
	// the deterministic path population (0 when not ready).
	RootChildren int
}

// probeServer waits for liveness, then readiness, then asks /api/node
// for the root child count so the schedule only navigates paths that
// exist. A server that never becomes ready within wait is still usable
// for search-only load.
func probeServer(client *http.Client, base string, wait time.Duration) (probeResult, error) {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close() // drained; nothing actionable on close
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return probeResult{}, fmt.Errorf("server not reachable within %s: %w", wait, err)
			}
			return probeResult{}, fmt.Errorf("server not healthy within %s", wait)
		}
		time.Sleep(100 * time.Millisecond)
	}
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close() // drained; nothing actionable on close
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return probeResult{Ready: false}, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	resp, err := client.Get(base + "/api/node")
	if err != nil {
		return probeResult{}, fmt.Errorf("root probe: %w", err)
	}
	defer func() {
		_ = resp.Body.Close() // read below; nothing actionable on close
	}()
	if resp.StatusCode != http.StatusOK {
		return probeResult{}, fmt.Errorf("root probe: status %d", resp.StatusCode)
	}
	var node struct {
		Children []json.RawMessage `json:"children"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&node); err != nil {
		return probeResult{}, fmt.Errorf("root probe: %w", err)
	}
	return probeResult{Ready: true, RootChildren: len(node.Children)}, nil
}

// runner issues operations against the server and records outcomes.
type runner struct {
	client  *http.Client
	base    string
	records *recorder
	// retries is how many additional attempts a transport error gets
	// before the request is recorded as a net error. Only errors from
	// the client itself (connection refused, reset, timeout) retry:
	// any HTTP response — including a shed 503 — is an answer, and
	// replaying answered requests would distort the measured stream.
	retries int
	// retryBase is the first backoff step; attempt a sleeps
	// retryBase·2^a scaled by a jitter factor in [0.5, 1].
	retryBase time.Duration
	// jitterSeq derives per-sleep jitter (splitmix64 over a shared
	// counter): lock-free under concurrent workers and free of the
	// synchronized-retry-storm shape a fixed backoff would produce.
	jitterSeq atomic.Uint64
}

// backoff returns the jittered exponential delay before retry attempt
// (attempt 0 = first retry).
func (r *runner) backoff(attempt int) time.Duration {
	base := r.retryBase
	if base <= 0 {
		return 0
	}
	if attempt > 20 {
		attempt = 20 // beyond any real retry budget; keeps the shift sane
	}
	d := float64(base * (1 << attempt))
	frac := 0.5 + 0.5*float64(splitmix(r.jitterSeq.Add(1))>>11)/float64(1<<53)
	return time.Duration(d * frac)
}

// runClosed drives the closed loop: workers streams of back-to-back
// requests. Worker w draws from its own deterministic sub-stream, so
// the per-worker request sequence is independent of scheduling.
func (r *runner) runClosed(gen *opGen, workers int, duration time.Duration) {
	if workers <= 0 {
		workers = 1
	}
	stop := time.Now().Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sub := gen.worker(w)
			for time.Now().Before(stop) {
				r.issue(w, sub.next())
			}
		}(w)
	}
	wg.Wait()
}

// issue sends one operation — retrying transport errors with jittered
// exponential backoff — and records the outcome. The recorded latency
// covers the final attempt only; the retry count is recorded alongside
// so backoff time is attributable, not hidden inside latency.
func (r *runner) issue(worker int, o op) {
	var (
		resp    *http.Response
		err     error
		start   time.Time
		latency time.Duration
	)
	attempt := 0
	for {
		start = time.Now()
		if o.body == "" {
			resp, err = r.client.Get(r.base + o.path)
		} else {
			resp, err = r.client.Post(r.base+o.path, "application/json", strings.NewReader(o.body))
		}
		latency = time.Since(start)
		if err == nil || attempt >= r.retries {
			break
		}
		time.Sleep(r.backoff(attempt))
		attempt++
	}
	rec := record{
		TMS:       float64(start.UnixNano()%1e12) / 1e6,
		Worker:    worker,
		Op:        o.kind,
		LatencyMS: float64(latency) / float64(time.Millisecond),
		Retries:   attempt,
	}
	if err != nil {
		rec.Error = err.Error()
		r.records.add(rec)
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close() // drained; nothing actionable on close
	rec.Status = resp.StatusCode
	// The load shedder (navserver's and lakecoord's alike) answers 503
	// with the literal body "overloaded"; that is deliberate
	// back-pressure, not a failure. A coordinator that reached a dead
	// shard instead answers 503 with a body naming the unavailable
	// shard — degradation, a third quantity distinct from both shed
	// back-pressure and transport errors.
	if resp.StatusCode == http.StatusServiceUnavailable {
		switch {
		case strings.Contains(string(body), "overloaded"):
			rec.Shed = true
		case strings.Contains(string(body), "unavailable"):
			rec.Degraded = true
		}
	}
	// A 200 batch answer can still be partially degraded: the
	// coordinator advertises how many items carry shard-unavailable
	// errors in the X-Fleet-Degraded header.
	if h := resp.Header.Get("X-Fleet-Degraded"); h != "" {
		if n, err := strconv.Atoi(h); err == nil && n > 0 {
			rec.DegradedItems = n
		}
	}
	r.records.add(rec)
}

// record is one NDJSON line of the per-request log.
type record struct {
	TMS       float64 `json:"t_ms"`
	Worker    int     `json:"worker"`
	Op        string  `json:"op"`
	Status    int     `json:"status,omitempty"`
	LatencyMS float64 `json:"latency_ms"`
	Shed      bool    `json:"shed,omitempty"`
	// Degraded marks a coordinator 503 naming a dead shard;
	// DegradedItems counts shard-unavailable items inside an otherwise
	// successful batch answer (the X-Fleet-Degraded header).
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedItems int    `json:"degraded_items,omitempty"`
	Retries       int    `json:"retries,omitempty"`
	Error         string `json:"error,omitempty"`
}

// recorder aggregates request outcomes and optionally streams them as
// NDJSON.
type recorder struct {
	mu        sync.Mutex
	sink      *json.Encoder
	latencies []float64
	byOp      map[string]int
	byStatus  map[string]int
	shed      int
	netErrs   int
	failures  int
	retries   int
	total     int
	// degraded counts responses degraded wholesale (coordinator 503
	// naming a dead shard); degradedItems sums per-item degradations
	// inside 200 batch answers. Both stay out of failures: degradation
	// is the fleet's survival contract working, and the soak gates on
	// it separately (-fail-on-degraded).
	degraded      int
	degradedItems int
}

func newRecorder(sink io.Writer) *recorder {
	r := &recorder{
		byOp:     make(map[string]int),
		byStatus: make(map[string]int),
	}
	if sink != nil {
		r.sink = json.NewEncoder(sink)
	}
	return r
}

func (r *recorder) add(rec record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	r.byOp[rec.Op]++
	r.retries += rec.Retries
	r.degradedItems += rec.DegradedItems
	switch {
	case rec.Error != "":
		r.netErrs++
		r.failures++
	case rec.Shed:
		r.shed++
		r.byStatus[fmt.Sprintf("%d", rec.Status)]++
	case rec.Degraded:
		// A whole-request degradation: like shed, it is booked by
		// status but excluded from failures and from the latency
		// population (its latency is the dead shard's timeout, not
		// service time).
		r.degraded++
		r.byStatus[fmt.Sprintf("%d", rec.Status)]++
	default:
		r.byStatus[fmt.Sprintf("%d", rec.Status)]++
		if rec.Status < 200 || rec.Status >= 300 {
			r.failures++
		}
		r.latencies = append(r.latencies, rec.LatencyMS)
	}
	if r.sink != nil {
		if err := r.sink.Encode(rec); err != nil {
			log.Print("lakeload: ndjson: ", err)
			r.sink = nil
		}
	}
}

// summary is the end-of-run report printed to stdout.
type summary struct {
	Requests int            `json:"requests"`
	ByOp     map[string]int `json:"by_op"`
	ByStatus map[string]int `json:"by_status"`
	Shed     int            `json:"shed"`
	// NetErrors counts requests that still had a transport error after
	// their retry budget; Retries counts the extra attempts spent, so a
	// flaky-but-recovering link shows up as retries without failures.
	NetErrors int `json:"net_errors"`
	Retries   int `json:"retries"`
	// Degraded counts whole responses the coordinator degraded (503
	// naming a dead shard); DegradedItems sums shard-unavailable items
	// inside 200 batch answers. Kept apart from both Shed and Failures
	// so a fleet soak can require zero failures while tolerating —
	// or separately gating on — kill-window degradation.
	Degraded      int `json:"degraded"`
	DegradedItems int `json:"degraded_items"`
	// Failures counts non-2xx responses excluding deliberate shed 503s
	// and degraded answers, plus transport errors — the CI gate
	// quantity.
	Failures   int     `json:"failures"`
	ElapsedSec float64 `json:"elapsed_sec"`
	Throughput float64 `json:"throughput_rps"`
	LatencyMS  struct {
		P50 float64 `json:"p50"`
		P95 float64 `json:"p95"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
}

func (r *recorder) summarize(elapsed time.Duration) summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := summary{
		Requests:      r.total,
		ByOp:          r.byOp,
		ByStatus:      r.byStatus,
		Shed:          r.shed,
		NetErrors:     r.netErrs,
		Retries:       r.retries,
		Degraded:      r.degraded,
		DegradedItems: r.degradedItems,
		Failures:      r.failures,
		ElapsedSec:    elapsed.Seconds(),
	}
	if elapsed > 0 {
		s.Throughput = float64(r.total) / elapsed.Seconds()
	}
	if len(r.latencies) > 0 {
		sorted := append([]float64(nil), r.latencies...)
		sort.Float64s(sorted)
		s.LatencyMS.P50 = quantile(sorted, 0.50)
		s.LatencyMS.P95 = quantile(sorted, 0.95)
		s.LatencyMS.P99 = quantile(sorted, 0.99)
		s.LatencyMS.Max = sorted[len(sorted)-1]
	}
	return s
}

// quantile reads the q-quantile from an ascending slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
