package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// A hand-built trace: a client request whose coordinator fans out two
// sub-requests that overlap in time, one of which calls the cache.
//
//	client.request  [0, 100)
//	  fleet.route   [10, 90)
//	    navhttp.a   [20, 60)  ┐ parallel, overlapping
//	    navhttp.b   [40, 80)  ┘
//	      serve.get [45, 55)
//	    navhttp.c   [85, 120) runs past its parent; only [85, 90) counts
//	  fleet.log     [95, 100)
func handBuiltTrace() []span {
	return []span{
		{Trace: 1, ID: 1, Name: "client.request", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "fleet.route", Start: 10, End: 90},
		{Trace: 1, ID: 3, Parent: 2, Name: "navhttp.a", Start: 20, End: 60},
		{Trace: 1, ID: 4, Parent: 2, Name: "navhttp.b", Start: 40, End: 80},
		{Trace: 1, ID: 5, Parent: 4, Name: "serve.get", Start: 45, End: 55},
		{Trace: 1, ID: 6, Parent: 2, Name: "navhttp.c", Start: 85, End: 120},
		{Trace: 1, ID: 7, Parent: 1, Name: "fleet.log", Start: 95, End: 100},
		// Same ids in another trace must not be taken for children.
		{Trace: 2, ID: 3, Parent: 1, Name: "navhttp.other", Start: 0, End: 1000},
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	got := map[string]time.Duration{}
	for _, lt := range selfTimes(handBuiltTrace()) {
		got[lt.Layer] = lt.Self
	}
	want := map[string]time.Duration{
		// 100 minus the union of [10,90) and [95,100).
		"client": 15,
		// route: 80 minus the union [20,80) ∪ [85,90) = 65 → 15; log: 5.
		"fleet": 20,
		// a: 40; b: 40 - 10 = 30; c: 35 (its own span is not clipped);
		// the orphan of trace 2: 1000.
		"navhttp": 1105,
		"serve":   10,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
}

func TestTraceCommandPrintsSelfTimes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.ndjson")
	if err := writeSpans(path, handBuiltTrace()); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := traceMain([]string{"-in", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 || !strings.HasPrefix(strings.TrimSpace(lines[1]), "navhttp") {
		t.Fatalf("want a header and four layers, largest self time first; got\n%s", out.String())
	}
	if code := traceMain(nil, &out, &errOut); code != 2 {
		t.Errorf("missing -in: exit %d, want 2", code)
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := traceMain([]string{"-in", path}, &out, &errOut); code != 1 {
		t.Errorf("corrupt span file: exit %d, want 1", code)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	trace, id := tr.root("client.x", time.Now(), time.Now())
	sp := tr.open("replay.x")
	sp.child("serve.x", time.Now(), time.Now())
	sp.finish()
	if trace != 0 || id != 0 || tr.snapshot() != nil {
		t.Fatal("a nil tracer recorded spans")
	}
	tr = newTracer()
	sp = tr.open("replay.x")
	sp.child("serve.x", time.Now(), time.Now())
	sp.finish()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Parent != spans[1].ID || spans[0].Trace != spans[1].Trace {
		t.Fatalf("child not linked to its open parent: %+v", spans)
	}
}
