package main

import (
	"errors"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when the code under test sleeps or a fake
// request takes time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestOpenLoopChargesAStallToEveryLaterRequest(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	const n = 12
	ops := make([]op, n)
	service := make([]time.Duration, n)
	for i := range service {
		service[i] = time.Millisecond
	}
	service[2] = 55 * time.Millisecond // one stalled request
	next := 0
	send := func(o *op, keep bool) (outcome, []byte) {
		clk.advance(service[next])
		next++
		return outOK, nil
	}
	samples := runOpen(clk, ops, 100, 1, send) // due every 10ms

	// The schedule a single sender must follow: start at the due time or
	// when the previous request finished, whichever is later.
	var prevDone time.Duration
	for i, s := range samples {
		due := time.Duration(i) * 10 * time.Millisecond
		start := max(due, prevDone)
		done := start + service[i]
		prevDone = done
		if got, want := s.latencyMS(), ms(done-due); got != want {
			t.Errorf("request %d: latency %vms, want %vms", i, got, want)
		}
		if got, want := s.lagMS(), ms(start-due); got != want {
			t.Errorf("request %d: lag %vms, want %vms", i, got, want)
		}
	}
	// Requests 3..7 were due while request 2 stalled: each is charged the
	// wait, not just its own 1ms of service.
	for i := 3; i <= 7; i++ {
		if samples[i].latencyMS() <= 1 {
			t.Errorf("request %d queued behind the stall but reports %vms", i, samples[i].latencyMS())
		}
	}
	if samples[8].latencyMS() != 1 {
		t.Errorf("request 8 is due after the backlog cleared, latency %vms, want 1ms", samples[8].latencyMS())
	}
}

func TestFailuresCountAsFailedAndMissTheLimit(t *testing.T) {
	fleetDegraded := http.Header{}
	fleetDegraded.Set("X-Fleet-Degraded", "3")
	cases := []struct {
		name   string
		status int
		hdr    http.Header
		body   string
		err    error
		want   outcome
	}{
		{"ok", 200, http.Header{}, "[]", nil, outOK},
		{"shed", 503, http.Header{}, "overloaded\n", nil, outShed},
		{"dead shard", 503, http.Header{}, "shard s1 unavailable: connection refused", nil, outDegraded},
		{"degraded items", 200, fleetDegraded, `{"results":[]}`, nil, outDegraded},
		{"transport", 0, nil, "", errors.New("connection reset"), outTransport},
		{"server error", 500, http.Header{}, "boom", nil, outStatus},
	}
	now := time.Unix(0, 0)
	var samples []sample
	for _, c := range cases {
		got := classify(c.status, c.hdr, []byte(c.body), c.err)
		if got != c.want {
			t.Errorf("%s: outcome %d, want %d", c.name, got, c.want)
		}
		// Every request was fast: only its outcome decides.
		samples = append(samples, sample{due: now, sent: now, done: now.Add(time.Millisecond), out: got})
	}
	samples = append(samples, sample{due: now, sent: now, done: now.Add(time.Millisecond), out: outWrong})
	tl := count(samples)
	if tl.attempted != len(samples) || tl.failed != len(samples)-1 || tl.good != 1 {
		t.Fatalf("tally %+v: want %d attempted, %d failed, 1 good", tl, len(samples), len(samples)-1)
	}
	for i, s := range samples {
		if s.out.failed() == s.good() {
			t.Errorf("sample %d (outcome %d): failed=%v but good=%v", i, s.out, s.out.failed(), s.good())
		}
	}
	lat := latencies(samples, 6*time.Second)
	for i, s := range samples {
		if s.out.failed() && lat[i] < latencyLimitMS {
			t.Errorf("failed sample %d charged %vms, under the %dms limit", i, lat[i], latencyLimitMS)
		}
	}
	slow := sample{due: now, sent: now, done: now.Add(30 * time.Millisecond)}
	if slow.good() {
		t.Error("a 30ms success counted toward goodput")
	}
}

func TestRoundsSplitTheMeasuredSeconds(t *testing.T) {
	for _, c := range []struct {
		seconds, n   int
		open, closed time.Duration
	}{
		{30, 12, time.Second, 1500 * time.Millisecond},
		{10, 4, time.Second, 1500 * time.Millisecond},
		{1, 1, 400 * time.Millisecond, 600 * time.Millisecond},
	} {
		r := &run{seconds: c.seconds}
		n, open, closed := r.rounds()
		if n != c.n || open != c.open || closed != c.closed {
			t.Errorf("%ds: %d rounds of %v + %v, want %d of %v + %v", c.seconds, n, open, closed, c.n, c.open, c.closed)
		}
	}
}

func TestOneSlowRoundMovesNoMedian(t *testing.T) {
	now := time.Unix(0, 0)
	samples := func(n int, latency time.Duration) []sample {
		s := make([]sample, n)
		for i := range s {
			s[i] = sample{due: now, sent: now, done: now.Add(latency)}
		}
		return s
	}
	quick := round{open: samples(5, time.Millisecond), closed: samples(100, time.Millisecond)}
	slow := round{open: samples(5, 40*time.Millisecond), closed: samples(100, 30*time.Millisecond)}
	p50s, goodputs := roundStats([]round{quick, slow, quick}, time.Second, 2*time.Second)
	if want := []float64{1, 40, 1}; !slices.Equal(p50s, want) {
		t.Errorf("round p50s %v, want %v", p50s, want)
	}
	// The slow round's answers all missed the latency limit.
	if want := []float64{50, 0, 50}; !slices.Equal(goodputs, want) {
		t.Errorf("round goodputs %v, want %v", goodputs, want)
	}
	if median(p50s) != 1 || median(goodputs) != 50 {
		t.Errorf("medians %v ms and %v/s, want the quick rounds' 1 ms and 50/s", median(p50s), median(goodputs))
	}
}
