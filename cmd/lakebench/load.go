package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// latencyLimitMS is the per-request latency limit of goodput.
const latencyLimitMS = 25

// verifyEvery samples 1 in verifyEvery responses for answer checks.
const verifyEvery = 64

// outcome classifies one request. Every outcome but outOK is a failed
// request, and a failed request misses the latency limit.
type outcome uint8

const (
	outOK        outcome = iota
	outShed              // 503 "overloaded": a load shedder refused it
	outDegraded          // coordinator 503 naming a dead shard, or degraded batch items
	outTransport         // no HTTP response at all
	outStatus            // any other non-2xx status
	outWrong             // a 2xx whose answer failed verification
)

func (o outcome) failed() bool { return o != outOK }

// sample is one timed request. In the open loop, latency runs from the
// time the request was due, so a stall is charged to every request that
// waited behind it; lag is how late the sender started it.
type sample struct {
	kind       opKind
	due, sent  time.Time
	done       time.Time
	out        outcome
	verifyOp   *op    // set for 1 in verifyEvery successful requests
	verifyBody []byte // the answer to check against verifyOp
}

func (s *sample) latencyMS() float64 { return ms(s.done.Sub(s.due)) }
func (s *sample) lagMS() float64     { return ms(s.sent.Sub(s.due)) }

// good reports whether the request counts toward goodput.
func (s *sample) good() bool { return !s.out.failed() && s.latencyMS() <= latencyLimitMS }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clock abstracts time so the open-loop schedule is testable.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// SleepUntil wakes within microseconds of t. time.Sleep wakes up to a
// millisecond late on Linux (runtime timers ride the netpoller's
// millisecond timeout), lateness the open loop would charge to every
// request. nanosleep blocks the thread and wakes within the kernel's
// 50µs timer slack; the final stretch spins.
func (realClock) SleepUntil(t time.Time) {
	const slack = 60 * time.Microsecond
	for d := time.Until(t) - slack; d > 0; d = time.Until(t) - slack {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only wakes early; the loop sleeps again
	}
	for time.Now().Before(t) {
	}
}

// sendFunc performs one op and classifies the result; it returns the
// body of a successful response the caller asked to keep.
type sendFunc func(o *op, keep bool) (outcome, []byte)

// runOpen sends ops[i] at start + i/rate from workers senders. A sender
// that is still busy when a request falls due makes that request late,
// and its latency, timed from the due time, shows it.
func runOpen(clk clock, ops []op, rate float64, workers int, send sendFunc) []sample {
	interval := time.Duration(float64(time.Second) / rate)
	samples := make([]sample, len(ops))
	start := clk.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				clk.SleepUntil(due)
				s := &samples[i]
				s.kind, s.due, s.sent = ops[i].kind, due, clk.Now()
				s.out, s.verifyBody = send(&ops[i], i%verifyEvery == 0)
				s.done = clk.Now()
				if s.verifyBody != nil {
					s.verifyOp = &ops[i]
				}
			}
		}()
	}
	wg.Wait()
	return samples
}

// runClosed runs one back-to-back sender per stream until the deadline:
// each sends its next op as soon as the previous one completed.
func runClosed(clk clock, streams []*opStream, d time.Duration, send sendFunc) []sample {
	stop := clk.Now().Add(d)
	per := make([][]sample, len(streams))
	var wg sync.WaitGroup
	for w, st := range streams {
		wg.Add(1)
		go func(w int, st *opStream) {
			defer wg.Done()
			for n := 0; clk.Now().Before(stop); n++ {
				o := st.next()
				s := sample{kind: o.kind, due: clk.Now()}
				s.sent = s.due
				s.out, s.verifyBody = send(&o, n%verifyEvery == 0)
				s.done = clk.Now()
				if s.verifyBody != nil {
					s.verifyOp = &o
				}
				per[w] = append(per[w], s)
			}
		}(w, st)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// tally counts a phase's requests.
type tally struct {
	attempted, failed, good int
	byOutcome               [outWrong + 1]int
}

func count(samples []sample) tally {
	var t tally
	for i := range samples {
		s := &samples[i]
		t.attempted++
		t.byOutcome[s.out]++
		if s.out.failed() {
			t.failed++
		}
		if s.good() {
			t.good++
		}
	}
	return t
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.good += o.good
	for i := range t.byOutcome {
		t.byOutcome[i] += o.byOutcome[i]
	}
}

// latencies returns every request's latency in ms. A failed request is
// charged the whole phase, so failures can only move percentiles up.
func latencies(samples []sample, phase time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = samples[i].latencyMS()
		if samples[i].out.failed() {
			out[i] = math.Max(out[i], ms(phase))
		}
	}
	return out
}

// httpTarget sends ops to one base URL over a shared keep-alive client.
type httpTarget struct {
	client   *http.Client
	base     string
	withLake bool
}

// newClient returns a client holding at most conns keep-alive
// connections per host.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// send is a sendFunc over the target.
func (t *httpTarget) send(o *op, keep bool) (outcome, []byte) {
	status, hdr, body, err := t.do(o)
	out := classify(status, hdr, body, err)
	if keep && out == outOK {
		return out, body
	}
	return out, nil
}

func (t *httpTarget) do(o *op) (int, http.Header, []byte, error) {
	method, path, body := o.request(t.withLake)
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("read %s: %w", path, err)
	}
	return resp.StatusCode, resp.Header, data, nil
}

// classify maps a response to its outcome, telling load shedding,
// fleet degradation and transport failures apart the way lakeload does.
func classify(status int, hdr http.Header, body []byte, err error) outcome {
	switch {
	case err != nil:
		return outTransport
	case status == http.StatusServiceUnavailable && bytes.Contains(body, []byte("overloaded")):
		return outShed
	case status == http.StatusServiceUnavailable && bytes.Contains(body, []byte("unavailable")):
		return outDegraded
	case status < 200 || status >= 300:
		return outStatus
	}
	if n, err := strconv.Atoi(hdr.Get("X-Fleet-Degraded")); err == nil && n > 0 {
		return outDegraded
	}
	return outOK
}
