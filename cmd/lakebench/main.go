// Command lakebench is lakenav's end-to-end benchmark. One run measures
// one workload against the real navserver and lakecoord binaries, built
// from the checkout before any timer starts, checks the answers, and
// prints one JSON result as its last line of output:
//
//	go -C cmd/lakebench run . -workload serve-hot -seed 1 -seconds 25 -trace 0
//	go -C cmd/lakebench run . trace -in spans.ndjson
//
// Workloads: build (construction), serve-hot and serve-cold (a
// two-shard fleet behind lakecoord, skewed and uniform query mixes). An
// untraced run prints the end-to-end metrics; a run with -trace 1
// records spans, writes them out when it ends, and prints the per-layer
// metrics instead. See README.md for the metrics and why each workload
// exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"build":      runBuild,
	"serve-hot":  runServeHot,
	"serve-cold": runServeCold,
}

// run is the state of one benchmark run.
type run struct {
	workload string
	seed     int64
	seconds  int
	root     string // repository checkout
	work     string // this run's scratch directory
	nproc    int
	bins     binaries
	tr       *tracer // nil unless traced
	log      io.Writer

	procs []*proc // every server started, stopped when the run ends

	tally   tally
	wrong   []error // failed answer and state checks
	metrics map[string]float64
	rates   string // the offered load, for the header
}

func (r *run) traced() bool { return r.tr != nil }

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "lakebench: "+format+"\n", args...)
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// fail records a failed correctness check.
func (r *run) fail(err error) {
	r.logf("CHECK FAILED: %v", err)
	r.wrong = append(r.wrong, err)
}

// newProc prepares a server process, logging to the run's scratch
// directory; every process of a run is stopped when the run ends.
func (r *run) newProc(name, bin string, args ...string) (*proc, error) {
	p, err := newProc(name, bin, filepath.Join(r.work, name+".log"), args...)
	if err != nil {
		return nil, err
	}
	r.procs = append(r.procs, p)
	return p, nil
}

func (r *run) stopAll() {
	for _, p := range r.procs {
		p.stop()
	}
}

// roundLength is about how long one round of a serving run lasts. A
// round is an open-loop block (40% of it) followed by a closed-loop
// block (the rest); a latency median settles in far fewer requests than
// a throughput does. p50_ms and goodput_per_s are medians over the
// rounds, so a slow spell of the host that covers fewer than half of
// them moves neither, and both loops live through the same spells.
const roundLength = 2500 * time.Millisecond

// rounds splits the run's measured seconds into n rounds of about
// roundLength, each with its open and closed block.
func (r *run) rounds() (n int, open, closed time.Duration) {
	total := time.Duration(r.seconds) * time.Second
	n = max(1, int((total+roundLength/2)/roundLength))
	per := total / time.Duration(n)
	open = per * 4 / 10
	return n, open, per - open
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "trace" {
		return traceMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("lakebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "serve-hot", "build, serve-hot or serve-cold")
	seed := fs.Int64("seed", 1, "input seed: the same seed generates the same lakes, organizations and requests")
	seconds := fs.Int("seconds", 25, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "lakebench: want -workload in {build, serve-hot, serve-cold}, -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "lakebench:", err)
		return 2
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, root: root,
		nproc: runtime.NumCPU(), log: stderr, metrics: make(map[string]float64),
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	outDir := filepath.Join(root, ".bench_build")
	r.work = filepath.Join(outDir, fmt.Sprintf("run-%s-%d-%d", r.workload, r.seed, os.Getpid()))
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "lakebench:", err)
		return 2
	}
	defer func() {
		_ = os.RemoveAll(r.work) // scratch only; a leftover is harmless
	}()
	if r.bins, err = buildBinaries(root, filepath.Join(outDir, "bin")); err != nil {
		fmt.Fprintln(stderr, "lakebench:", err)
		return 2
	}

	err = drive(r)
	r.stopAll()
	if err != nil {
		fmt.Fprintf(stderr, "lakebench: %s: %v\n", r.workload, err)
		return 2
	}
	if r.traced() {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.ndjson", r.workload, r.seed))
		spans := r.tr.snapshot()
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintln(stderr, "lakebench:", err)
			return 2
		}
		fmt.Fprintf(stderr, "lakebench: %d spans written to %s; self time by layer:\n", len(spans), path)
		printSelfTimes(stderr, selfTimes(spans))
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintln(stderr, "lakebench:", err)
		return 2
	}
	r.printHeader(stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "lakebench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// findRoot returns the checkout to benchmark: the closest directory at
// or above the working directory whose go.mod declares module lakenav.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := wd; ; d = filepath.Dir(d) {
		if isLakenavRoot(d) {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", errors.New("no lakenav checkout at or above the working directory")
		}
	}
}

func isLakenavRoot(dir string) bool {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "module lakenav" {
			return true
		}
	}
	return false
}

// metricSpec names one reported metric.
type metricSpec struct{ name, unit, better string }

// endToEnd are the metrics a user of the system sees; every untraced
// run reports all of them.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"goodput_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"recovery_s", "s", "lower"},
}

// perLayer are the metrics of single layers; every traced run reports
// all of them, with 0 for a layer its workload does not exercise.
var perLayer = []metricSpec{
	{"lakebench.gen_lag_p99_ms", "ms", "lower"},
	{"lakebench.traced_p50_ms", "ms", "lower"},
	{"lakebench.p90_ms", "ms", "lower"},
	{"lakebench.p99_ms", "ms", "lower"},
	{"fleet.hop_p50_ms", "ms", "lower"},
	{"fleet.retries", "count", "lower"},
	{"fleet.hedges", "count", "lower"},
	{"fleet.shed", "count", "lower"},
	{"fleet.subbatches_per_batch", "count", "lower"},
	{"navhttp.handler_mean_ms.suggest", "ms", "lower"},
	{"navhttp.handler_mean_ms.discover", "ms", "lower"},
	{"navhttp.handler_mean_ms.search", "ms", "lower"},
	{"navhttp.handler_mean_ms.batch_suggest", "ms", "lower"},
	{"navhttp.handler_mean_ms.batch_search", "ms", "lower"},
	{"navhttp.wire_p50_ms", "ms", "lower"},
	{"navhttp.log_bytes_per_req", "B", "lower"},
	{"serve.cache.hit_ratio", "ratio", "higher"},
	{"serve.cache.evictions", "count", "lower"},
	{"serve.hit_us", "us", "lower"},
	{"serve.miss_us", "us", "lower"},
	{"embed.query_topic_us", "us", "lower"},
	{"core.discover_topic_us", "us", "lower"},
	{"core.suggest_topic_us", "us", "lower"},
	{"textsearch.search_us", "us", "lower"},
	{"lake.topics_ms", "ms", "lower"},
	{"core.init_ms", "ms", "lower"},
	{"core.new_evaluator_ms", "ms", "lower"},
	{"core.search_ms", "ms", "lower"},
	{"core.iteration_us", "us", "lower"},
	{"core.iterations", "count", "lower"},
	{"core.accept_ratio", "ratio", "higher"},
	{"core.evaluator.reevaluate", "count", "lower"},
	{"core.evaluator.states_revisited", "count", "lower"},
	{"core.evaluator.leaf_evals", "count", "lower"},
	{"core.parallel.fork_ratio", "ratio", "lower"},
	{"core.effectiveness", "ratio", "higher"},
	{"core.build_alloc_mb", "MB", "lower"},
	{"coldstart.lake_load_ms", "ms", "lower"},
	{"coldstart.org_load_ms", "ms", "lower"},
	{"coldstart.search_index_ms", "ms", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *run) result() (result, error) {
	res := result{
		Correct:   len(r.wrong) == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   make(map[string]metricValue),
	}
	if res.Attempted < 1 {
		return res, errors.New("no operation was attempted")
	}
	specs := endToEnd
	if r.traced() {
		specs = perLayer
	}
	for _, m := range specs {
		v, ok := r.metrics[m.name]
		if !ok && !r.traced() {
			return res, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

// printHeader prints the run's identity and its metrics as a readable
// table, ahead of the JSON line.
func (r *run) printHeader(w io.Writer, res result) {
	fmt.Fprintf(w, "# lakebench %s seed=%d seconds=%d trace=%v rev=%s nproc=%d gomaxprocs=%d go=%s %s\n",
		r.workload, r.seed, r.seconds, r.traced(), gitRev(r.root), r.nproc, runtime.GOMAXPROCS(0), runtime.Version(), r.rates)
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	specs := endToEnd
	if r.traced() {
		specs = perLayer
	}
	for _, m := range specs {
		fmt.Fprintf(w, "#   %-40s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
}

// gitRev names the benchmarked commit, or "unknown" outside a git
// checkout. git is kept from looking above the checkout.
func gitRev(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
