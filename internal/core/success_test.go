package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"lakenav/internal/lake"
	"lakenav/internal/synth"
)

// successLakes are the lakes the Sec 4.2 differential test runs on:
// three tombstoned TagCloud lakes and a small Socrata lake, whose dense
// neighbour sets are where an approximate index loses recall.
func successLakes(t *testing.T) map[string]*lake.Lake {
	t.Helper()
	lakes := make(map[string]*lake.Lake)
	for _, seed := range []int64{3, 11, 29} {
		lakes[fmt.Sprintf("tombstoned-%d", seed)] = tombstonedLake(t, seed)
	}
	soc, err := synth.GenerateSocrata(synth.SmallSocrataConfig())
	if err != nil {
		t.Fatal(err)
	}
	lakes["socrata"] = soc.Lake
	return lakes
}

// successOrgs returns the flat and clustered organizations of l.
func successOrgs(t *testing.T, l *lake.Lake) map[string]*Org {
	t.Helper()
	flat, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Org{"flat": flat, "clustered": clustered}
}

// Success against the reference: EvaluateSuccess is the naive Sec 4.2
// double loop, on every table and on the Figure 2 series. Each
// attribute's row is reduced by one goroutine in ascending order, so
// the pool size cannot change a single bit of the result either.
func TestSuccessMatchesReference(t *testing.T) {
	const tol = 1e-12
	lakes := successLakes(t)
	for name, l := range lakes {
		for kind, o := range successOrgs(t, l) {
			probs := AttrProbMap(o)
			for _, theta := range []float64{0.5, 0.9, 1.0} {
				got, want := EvaluateSuccess(l, probs, theta), naiveSuccess(l, probs, theta)
				where := fmt.Sprintf("%s %s θ=%v", name, kind, theta)
				if len(got.PerTable) != len(want.PerTable) || len(got.Sorted) != len(want.Sorted) {
					t.Fatalf("%s: lengths PerTable %d/%d Sorted %d/%d", where,
						len(got.PerTable), len(want.PerTable), len(got.Sorted), len(want.Sorted))
				}
				for i := range want.PerTable {
					if math.Abs(got.PerTable[i]-want.PerTable[i]) > tol {
						t.Fatalf("%s: table %d success %v != reference %v", where, i, got.PerTable[i], want.PerTable[i])
					}
				}
				for i := range want.Sorted {
					if math.Abs(got.Sorted[i]-want.Sorted[i]) > tol {
						t.Fatalf("%s: Sorted[%d] %v != reference %v", where, i, got.Sorted[i], want.Sorted[i])
					}
				}
				if math.Abs(got.Mean-want.Mean) > tol {
					t.Fatalf("%s: mean %v != reference %v", where, got.Mean, want.Mean)
				}
			}
		}
	}

	l := lakes["socrata"]
	probs := AttrProbMap(successOrgs(t, l)["clustered"])
	run := func(procs int) *SuccessResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return EvaluateSuccess(l, probs, DefaultTheta)
	}
	serial := run(1)
	forks := metricParallelForks.Value()
	parallel := run(4)
	if metricParallelForks.Value() == forks {
		t.Fatal("success scan never forked at GOMAXPROCS 4; the test proves nothing")
	}
	for i := range serial.PerTable {
		if math.Float64bits(serial.PerTable[i]) != math.Float64bits(parallel.PerTable[i]) {
			t.Fatalf("table %d: %v at GOMAXPROCS 1 != %v at GOMAXPROCS 4", i, serial.PerTable[i], parallel.PerTable[i])
		}
	}
	if math.Float64bits(serial.Mean) != math.Float64bits(parallel.Mean) {
		t.Fatalf("mean %v at GOMAXPROCS 1 != %v at GOMAXPROCS 4", serial.Mean, parallel.Mean)
	}
}

// Tombstoned tables are not part of the lake: the Figure 2 series holds
// one entry per live table, and Mean is its average.
func TestSuccessSortedSkipsTombstones(t *testing.T) {
	l := tombstonedLake(t, 3)
	o, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res := EvaluateSuccess(l, AttrProbMap(o), DefaultTheta)
	var live []float64
	for i, tb := range l.Tables {
		if !tb.Removed {
			live = append(live, res.PerTable[i])
		}
	}
	if len(live) == len(l.Tables) {
		t.Fatal("lake has no tombstones; the test proves nothing")
	}
	if len(res.Sorted) != len(live) {
		t.Fatalf("Sorted has %d entries for %d live tables", len(res.Sorted), len(live))
	}
	var sum float64
	for _, p := range res.Sorted {
		sum += p
	}
	if got, want := res.Mean, sum/float64(len(res.Sorted)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean %v is not the average of Sorted %v", got, want)
	}
}
