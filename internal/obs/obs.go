// Package obs is the repository's observability substrate: atomic
// counters, gauges, and fixed-bucket histograms with an expvar-style
// JSON export, plus an NDJSON sink for structured events.
//
// The package is stdlib-only and built for instrumentation of hot
// paths: every mutation (Counter.Inc, Gauge.Set, Histogram.Observe, …)
// is a handful of atomic operations and performs no allocation — a
// property the test suite pins with testing.AllocsPerRun. Metrics are
// monitoring signals only: nothing in this package may influence the
// results of the code it observes (see DESIGN.md §9 for the rules).
//
// Export, by contrast, is cold-path: Registry.Snapshot copies the
// registered metrics into one JSON-ready value and is
// free to allocate.
package obs

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous integer value (in-flight requests,
// pool sizes, current iteration).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an atomic instantaneous float value (objective values,
// ratios). The float is stored as its IEEE-754 bits in a uint64.
type FloatGauge struct{ bits atomic.Uint64 }

// Set stores f.
func (g *FloatGauge) Set(f float64) { g.bits.Store(math.Float64bits(f)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Bounds are upper
// bucket edges in ascending order; an implicit +Inf bucket catches the
// overflow. Observe is lock-free and allocation-free; the bucket scan
// is linear, which for the ~dozen buckets of a latency histogram beats
// a branchy binary search.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float bits, updated by CAS
}

// DefLatencyBuckets are the default request-latency bucket edges in
// seconds, spanning sub-millisecond cache hits to multi-second builds.
var DefLatencyBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// NewHistogram returns a histogram over the given ascending upper
// bounds. It panics on unsorted or empty bounds — histogram shapes are
// static program structure, not runtime input.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe books one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bucket is one exported histogram bucket. Le is the upper bound
// rendered as a string ("+Inf" for the overflow bucket) because JSON
// has no encoding for infinity.
type Bucket struct {
	Le    string `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot exports the histogram's current state. Buckets are
// non-cumulative: each count covers (previous bound, bound].
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.Sum(),
		Buckets: make([]Bucket, len(h.counts)),
	}
	for i := range h.bounds {
		s.Buckets[i] = Bucket{
			Le:    strconv.FormatFloat(h.bounds[i], 'g', -1, 64),
			Count: h.counts[i].Load(),
		}
	}
	s.Buckets[len(h.bounds)] = Bucket{Le: "+Inf", Count: h.counts[len(h.bounds)].Load()}
	return s
}

// Registry is a named collection of metrics. Lookups take a mutex and
// are meant for program start-up: callers hold the returned pointers
// and mutate those directly on hot paths.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	floatGauges map[string]*FloatGauge
	histograms  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    make(map[string]*Counter),
		gauges:      make(map[string]*Gauge),
		floatGauges: make(map[string]*FloatGauge),
		histograms:  make(map[string]*Histogram),
	}
}

// Default is the process-wide registry. Library packages (internal/
// core) register their metrics here; services export it next to their
// own registries.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge returns the float gauge registered under name, creating
// it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.floatGauges[name]
	if !ok {
		g = &FloatGauge{}
		r.floatGauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bounds on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot is the exported state of a registry, shaped for JSON.
// encoding/json renders map keys sorted, so the export layout is
// deterministic for a given metric population.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Values     map[string]float64           `json:"values,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every registered metric's current value. Values
// are read without a global pause, so a snapshot taken under load is
// per-metric atomic but not cross-metric consistent — fine for
// monitoring, wrong for accounting.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.floatGauges) > 0 {
		s.Values = make(map[string]float64, len(r.floatGauges))
		for name, g := range r.floatGauges {
			s.Values[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}
