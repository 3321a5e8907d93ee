package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestFloatGauge(t *testing.T) {
	var g FloatGauge
	if g.Value() != 0 {
		t.Errorf("zero float gauge = %v", g.Value())
	}
	g.Set(0.25)
	if got := g.Value(); got != 0.25 {
		t.Errorf("float gauge = %v, want 0.25", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-106) > 1e-12 {
		t.Errorf("sum = %v, want 106", s.Sum)
	}
	// Bucket edges are inclusive upper bounds: 0.5 and 1 land in le=1,
	// 1.5 in le=2, 3 in le=4, 100 overflows to +Inf.
	want := []Bucket{{"1", 2}, {"2", 1}, {"4", 1}, {"+Inf", 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Errorf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same-name counters differ")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("same-name gauges differ")
	}
	if r.FloatGauge("f") != r.FloatGauge("f") {
		t.Error("same-name float gauges differ")
	}
	if r.Histogram("h", []float64{1}) != r.Histogram("h", []float64{5, 6}) {
		t.Error("same-name histograms differ")
	}
	if n := len(r.counters) + len(r.gauges) + len(r.floatGauges) + len(r.histograms); n != 4 {
		t.Errorf("registered %d metrics, want 4", n)
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("http.requests./api/node").Add(3)
	r.Gauge("http.inflight").Set(1)
	r.FloatGauge("build.best_eff").Set(0.5)
	r.Histogram("http.latency_seconds./api/node", []float64{0.01, 0.1}).Observe(0.05)

	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, data)
	}
	if snap.Counters["http.requests./api/node"] != 3 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if snap.Gauges["http.inflight"] != 1 {
		t.Errorf("gauges = %v", snap.Gauges)
	}
	if snap.Values["build.best_eff"] != 0.5 {
		t.Errorf("values = %v", snap.Values)
	}
	h := snap.Histograms["http.latency_seconds./api/node"]
	if h.Count != 1 || len(h.Buckets) != 3 || h.Buckets[1].Count != 1 {
		t.Errorf("histogram = %+v", h)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]float64{0.5})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.count.Load() != workers*per {
		t.Errorf("count = %d, want %d", h.count.Load(), workers*per)
	}
	if h.Sum() != workers*per {
		t.Errorf("sum = %v, want %d", h.Sum(), workers*per)
	}
}

// The hot-path contract: mutating any metric allocates nothing. The
// optimizer's inner loop and every served request run through these
// operations, so a single allocation here would multiply into GC
// pressure across millions of requests.
func TestMetricMutationsDoNotAllocate(t *testing.T) {
	var c Counter
	var g Gauge
	var f FloatGauge
	h := NewHistogram(DefLatencyBuckets)
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Counter.Value", func() { _ = c.Value() }},
		{"Gauge.Set", func() { g.Set(5) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"FloatGauge.Set", func() { f.Set(0.125) }},
		{"Histogram.Observe", func() { h.Observe(0.003) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", tc.name, allocs)
		}
	}
}

func TestSinkEmitsNDJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	type ev struct {
		N int `json:"n"`
	}
	for i := 0; i < 3; i++ {
		s.Emit(ev{N: i})
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %q", lines)
	}
	for i, line := range lines {
		var got ev
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		if got.N != i {
			t.Errorf("line %d = %+v", i, got)
		}
	}
}

type failWriter struct{ calls int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.calls++
	return 0, errShort
}

var errShort = &shortError{}

type shortError struct{}

func (*shortError) Error() string { return "disk full" }

// A sink whose writer fails latches the error and stops writing: a
// full disk degrades the progress stream, never the build.
func TestSinkLatchesWriteError(t *testing.T) {
	w := &failWriter{}
	s := NewSink(w)
	s.Emit(1)
	s.Emit(2)
	s.Emit(3)
	if s.Err() == nil {
		t.Fatal("no error surfaced")
	}
	if w.calls != 1 {
		t.Errorf("writer called %d times after error, want 1", w.calls)
	}
}
