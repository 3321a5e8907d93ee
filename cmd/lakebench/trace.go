package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Trace; Parent is the enclosing span's ID (0 for a
// root). Names are <layer>.<call>. Times are nanoseconds since the run
// started.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	ids   uint64
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(trace, parent uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	t.record(span{Trace: trace, ID: t.ids, Parent: parent, Name: name}, start, end)
	return t.ids
}

// record appends s with its times; callers hold t.mu.
func (t *tracer) record(s span, start, end time.Time) {
	s.Start, s.End = int64(start.Sub(t.base)), int64(end.Sub(t.base))
	t.spans = append(t.spans, s)
}

// root records the root span of a fresh trace and returns (trace, id).
func (t *tracer) root(name string, start, end time.Time) (uint64, uint64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids += 2
	t.record(span{Trace: t.ids - 1, ID: t.ids, Name: name}, start, end)
	return t.ids - 1, t.ids
}

// openSpan is the root span of a fresh trace whose end is not known
// yet; children can be recorded under it before it finishes.
type openSpan struct {
	t         *tracer
	trace, id uint64
	name      string
	start     time.Time
}

func (t *tracer) open(name string) openSpan {
	s := openSpan{t: t, name: name, start: time.Now()}
	if t != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.ids += 2
		s.trace, s.id = t.ids-1, t.ids
	}
	return s
}

// child records a span under s.
func (s openSpan) child(name string, start, end time.Time) {
	s.t.add(s.trace, s.id, name, start, end)
}

// finish records s, ending now.
func (s openSpan) finish() {
	if s.t == nil {
		return
	}
	end := time.Now()
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.record(span{Trace: s.trace, ID: s.id, Name: s.name}, s.start, end)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

func readSpans(r io.Reader) ([]span, error) {
	var spans []span
	dec := json.NewDecoder(r)
	for {
		var s span
		err := dec.Decode(&s)
		if err == io.EOF {
			return spans, nil
		}
		if err != nil {
			return nil, fmt.Errorf("read spans: %w", err)
		}
		spans = append(spans, s)
	}
}

// layerTime aggregates the spans of one layer.
type layerTime struct {
	Layer string
	Spans int
	// Self is the summed span time not covered by a child span; Incl
	// the summed span durations.
	Self, Incl time.Duration
}

// selfTimes computes each layer's self time: every span's duration
// minus the part of it its children cover. Children may run in
// parallel and overlap; covered time counts once. Layers come back
// sorted by self time, largest first.
func selfTimes(spans []span) []layerTime {
	type key struct{ trace, id uint64 }
	children := make(map[key][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			k := key{s.Trace, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		var iv [][2]int64
		for _, c := range children[key{s.Trace, s.ID}] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		dur := s.End - s.Start
		self := dur - covered(iv)
		layer, _, _ := strings.Cut(s.Name, ".")
		lt := agg[layer]
		if lt == nil {
			lt = &layerTime{Layer: layer}
			agg[layer] = lt
		}
		lt.Spans++
		lt.Self += time.Duration(self)
		lt.Incl += time.Duration(dur)
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	var start int64
	for _, r := range iv {
		switch {
		case first:
			start, end, first = r[0], r[1], false
		case r[0] > end:
			total += end - start
			start, end = r[0], r[1]
		case r[1] > end:
			end = r[1]
		}
	}
	if !first {
		total += end - start
	}
	return total
}

func printSelfTimes(w io.Writer, lts []layerTime) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tspans\tself_ms\tincl_ms\tself_us/span\t")
	for _, lt := range lts {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f\t\n", lt.Layer, lt.Spans,
			ms(lt.Self), ms(lt.Incl), float64(lt.Self.Microseconds())/float64(lt.Spans))
	}
	_ = tw.Flush() // a table on a process stream; nothing to do on failure
}

// traceMain is `lakebench trace -in spans.ndjson`: it prints each
// layer's self time from a span file written by a traced run.
func traceMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "span file (NDJSON) written by a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "lakebench trace: missing -in")
		return 2
	}
	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(stderr, "lakebench trace:", err)
		return 1
	}
	defer f.Close()
	spans, err := readSpans(bufio.NewReader(f))
	if err != nil {
		fmt.Fprintln(stderr, "lakebench trace:", err)
		return 1
	}
	printSelfTimes(stdout, selfTimes(spans))
	return 0
}
