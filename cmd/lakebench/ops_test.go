package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func testGen(t *testing.T, seed int64, lakes int) *opGen {
	t.Helper()
	vocab := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}
	pop, err := newQueryPop(vocab, hotQueries, hotZipf, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &opGen{pop: pop, roots: []int{3, 0, 5, 1}, lakes: lakes}
}

// wire renders n ops of stream 0 the way they go on the wire.
func wire(g *opGen, seed int64, n int) []byte {
	var b bytes.Buffer
	st := g.stream(seed, 0)
	for i := 0; i < n; i++ {
		o := st.next()
		method, target, body := o.request(true)
		b.WriteString(method + " " + target + "\n")
		b.Write(body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestOpStreamIsSeeded(t *testing.T) {
	a := wire(testGen(t, 7, fleetLakes), 7, 500)
	b := wire(testGen(t, 7, fleetLakes), 7, 500)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave two different op streams")
	}
	if c := wire(testGen(t, 8, fleetLakes), 8, 500); bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 gave the same op stream")
	}
}

func TestOpMixAndPositions(t *testing.T) {
	g := testGen(t, 3, 0)
	st := g.stream(3, 1)
	const n = 20000
	var kinds [opBatchSearch + 1]int
	for i := 0; i < n; i++ {
		o := st.next()
		kinds[o.kind]++
		method, target, body := o.request(true)
		if strings.Contains(target, "lake=") || bytes.Contains(body, []byte(`"lake"`)) {
			t.Fatalf("lake id sent with lakes=0: %s %s %s", method, target, body)
		}
		check := func(dim int, path string) {
			if dim < 0 || dim >= len(g.roots) {
				t.Fatalf("dim %d out of range", dim)
			}
			if path == "" {
				return
			}
			c, err := strconv.Atoi(path)
			if err != nil || c < 0 || c >= g.roots[dim] {
				t.Fatalf("path %q is not a root child of dimension %d (%d children)", path, dim, g.roots[dim])
			}
		}
		switch o.kind {
		case opSuggest, opDiscover:
			check(o.dim, o.path)
		case opBatchSuggest:
			for _, it := range o.suggest {
				check(it.Dim, it.Path)
			}
		}
	}
	want := [opBatchSearch + 1]float64{0.40, 0.30, 0.20, 0.05, 0.05}
	for k, w := range want {
		if got := float64(kinds[k]) / n; got < w-0.02 || got > w+0.02 {
			t.Errorf("%s share %.3f, want %.2f", opKind(k), got, w)
		}
	}
}

func TestDirectRequestsDropTheLake(t *testing.T) {
	st := testGen(t, 1, fleetLakes).stream(1, 0)
	for i := 0; i < 200; i++ {
		o := st.next()
		_, target, body := o.request(false)
		if strings.Contains(target, "lake=") || bytes.Contains(body, []byte(`"lake"`)) {
			t.Fatalf("direct request carries a lake id: %s %s", target, body)
		}
		if _, withLake, _ := o.request(true); o.kind <= opSearch && !strings.Contains(withLake, "lake=") {
			t.Fatalf("coordinator request lost its lake id: %s", withLake)
		}
	}
}
