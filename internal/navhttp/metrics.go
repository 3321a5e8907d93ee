package navhttp

import (
	"net/http"
	netpprof "net/http/pprof"
	"time"

	"lakenav"
	"lakenav/internal/httpx"
	"lakenav/internal/obs"
)

// serverMetrics is the navserver's own registry: per-route request
// counters and latency histograms, status-class counters, in-flight
// and shed gauges, and the background-build gauges fed by optimizer
// progress events. Each server owns a fresh registry (tests spin up
// many servers in one process); /metrics exports it next to the
// process-wide core registry.
type serverMetrics struct {
	reg      *obs.Registry
	requests map[string]*obs.Counter
	latency  map[string]*obs.Histogram
	status   map[string]*obs.Counter
	inflight *obs.Gauge
	shed     *obs.Counter

	// Background-build gauges track the most recent optimizer progress
	// event. Dimensions search concurrently, so under a multi-dim build
	// the gauges flutter between dimensions — build.dim says which one
	// the other values belong to.
	buildRunning     *obs.Gauge
	buildDim         *obs.Gauge
	buildIteration   *obs.Gauge
	buildAccepted    *obs.Gauge
	buildRejected    *obs.Gauge
	buildCheckpoints *obs.Gauge
	buildEvents      *obs.Counter
	buildCurrentEff  *obs.FloatGauge
	buildBestEff     *obs.FloatGauge
	// The last iteration's Figure 3 visit fractions; final events carry
	// none, so they leave these at the last iteration's values.
	buildStatesVisited *obs.FloatGauge
	buildAttrsVisited  *obs.FloatGauge

	// shardGen mirrors the serving snapshot's generation stamp; in a
	// fleet it is the per-shard cache-epoch signal (bumped by every org
	// swap) that /admin/shard reports to the coordinator.
	shardGen *obs.Gauge
}

// metricRoutes are the paths instrumented individually; anything else
// books under "other" so unknown paths cannot grow the registry
// without bound.
var metricRoutes = []string{
	"/api/node", "/api/suggest", "/api/discover", "/api/search",
	"/batch/suggest", "/batch/search",
	"/admin/shard", "/healthz", "/readyz", "/metrics", "/",
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:      reg,
		requests: make(map[string]*obs.Counter),
		latency:  make(map[string]*obs.Histogram),
		status:   make(map[string]*obs.Counter),

		inflight: reg.Gauge("http.inflight"),
		shed:     reg.Counter("http.shed_total"),

		buildRunning:     reg.Gauge("build.running"),
		buildDim:         reg.Gauge("build.dim"),
		buildIteration:   reg.Gauge("build.iteration"),
		buildAccepted:    reg.Gauge("build.accepted"),
		buildRejected:    reg.Gauge("build.rejected"),
		buildCheckpoints: reg.Gauge("build.checkpoints"),
		buildEvents:      reg.Counter("build.events_total"),
		buildCurrentEff:  reg.FloatGauge("build.current_eff"),
		buildBestEff:     reg.FloatGauge("build.best_eff"),

		buildStatesVisited: reg.FloatGauge("build.states_visited_frac"),
		buildAttrsVisited:  reg.FloatGauge("build.attrs_visited_frac"),

		shardGen: reg.Gauge("shard.generation"),
	}
	for _, route := range append([]string{"other"}, metricRoutes...) {
		m.requests[route] = reg.Counter("http.requests." + route)
		m.latency[route] = reg.Histogram("http.latency_seconds."+route, obs.DefLatencyBuckets)
	}
	for _, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
		m.status[class] = reg.Counter("http.status." + class)
	}
	return m
}

// route maps a request path to its metric key.
func (m *serverMetrics) route(path string) string {
	if _, ok := m.requests[path]; ok {
		return path
	}
	return "other"
}

// statusClass maps an HTTP status code to its counter key.
func (m *serverMetrics) statusClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// NoteBuildProgress feeds one optimizer progress event into the build
// gauges /metrics exposes; cmd/navserver wires it as the background
// build's Config.Progress callback.
func (s *Server) NoteBuildProgress(p lakenav.ProgressEvent) {
	s.metrics.noteBuildProgress(p)
}

// SetBuildRunning flips the build.running gauge around a background
// organization build.
func (s *Server) SetBuildRunning(running bool) {
	v := int64(0)
	if running {
		v = 1
	}
	s.metrics.buildRunning.Set(v)
}

// noteBuildProgress feeds one optimizer progress event into the build
// gauges; it is the Config.Progress callback of the background build.
func (m *serverMetrics) noteBuildProgress(p lakenav.ProgressEvent) {
	m.buildEvents.Inc()
	m.buildDim.Set(int64(p.Dim))
	m.buildIteration.Set(int64(p.Iteration))
	m.buildAccepted.Set(int64(p.Accepted))
	m.buildRejected.Set(int64(p.Rejected))
	m.buildCheckpoints.Set(int64(p.Checkpoints))
	m.buildCurrentEff.Set(p.CurrentEff)
	m.buildBestEff.Set(p.BestEff)
	if !p.Final {
		m.buildStatesVisited.Set(p.StatesVisitedFrac)
		m.buildAttrsVisited.Set(p.AttrsVisitedFrac)
	}
}

// metricsware books every request into the per-route counters, the
// status-class counters, the latency histograms, and the in-flight
// gauge. It sits outside the load-shedding middleware so shed 503s are
// metered like any other response.
func (s *Server) metricsware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := s.metrics
		route := m.route(r.URL.Path)
		m.requests[route].Inc()
		m.inflight.Add(1)
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sr, r)
		m.latency[route].Observe(time.Since(start).Seconds())
		m.status[m.statusClass(sr.status)].Inc()
		m.inflight.Add(-1)
	})
}

// handleMetrics serves the JSON metrics export: the server's own
// registry plus the process-wide core (evaluator / worker pool)
// registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	httpx.WriteJSON(w, struct {
		ShardID string       `json:"shard_id,omitempty"`
		Server  obs.Snapshot `json:"server"`
		Core    obs.Snapshot `json:"core"`
	}{s.shardID, s.metrics.reg.Snapshot(), obs.Default.Snapshot()})
}

// PprofMux assembles the net/http/pprof routes on a private mux. The
// profiler is served on its own listener (-pprof), never the public
// one: profile requests run for tens of seconds and must not burn the
// request timeouts or the load-shedding budget, and the endpoint has
// no business being internet-reachable.
func PprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	return mux
}
