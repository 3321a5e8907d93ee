package experiments

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
)

// quick returns test-scale options writing into a buffer.
func quick(buf *bytes.Buffer) Options {
	return Options{Out: buf, Quick: true, Seed: 7}
}

func TestFigure2aShapes(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure2a(quick(&buf))
	if err != nil {
		t.Fatal(err)
	}
	baseline := res.Get("baseline")
	clustering := res.Get("clustering")
	oneDim := res.Get("1-dim")
	twoDim := res.Get("2-dim")
	approx := res.Get("2-dim approx")
	enriched := res.Get("enriched 2-dim")
	for name, s := range map[string]*OrgSeries{
		"baseline": baseline, "clustering": clustering, "1-dim": oneDim,
		"2-dim": twoDim, "2-dim approx": approx, "enriched 2-dim": enriched,
	} {
		if s == nil {
			t.Fatalf("missing series %s", name)
		}
		if s.Mean < 0 || s.Mean > 1 {
			t.Fatalf("%s mean %v out of range", name, s.Mean)
		}
	}
	// Paper shape: the flat baseline is far below every hierarchical
	// organization.
	if baseline.Mean*2 > clustering.Mean {
		t.Errorf("baseline %.4f not well below clustering %.4f", baseline.Mean, clustering.Mean)
	}
	// Optimization does not lose to its initialization.
	if oneDim.Mean < clustering.Mean*0.95 {
		t.Errorf("1-dim %.4f below clustering %.4f", oneDim.Mean, clustering.Mean)
	}
	// More dimensions help (allow small slack on the quick instance).
	if twoDim.Mean < oneDim.Mean*0.9 {
		t.Errorf("2-dim %.4f well below 1-dim %.4f", twoDim.Mean, oneDim.Mean)
	}
	// The approximation stays close to the exact 2-dim result.
	if diff := approx.Mean - twoDim.Mean; diff > 0.15 || diff < -0.15 {
		t.Errorf("approx %.4f far from exact %.4f", approx.Mean, twoDim.Mean)
	}
	if !strings.Contains(buf.String(), "fig2a") {
		t.Error("report not printed")
	}
}

func TestFigure2bShapes(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure2b(quick(&buf))
	if err != nil {
		t.Fatal(err)
	}
	// The multi-dimensional organization beats the flat tag baseline
	// (paper: 0.38 vs 0.12).
	if res.MultiD.Mean <= res.Flat.Mean {
		t.Errorf("multi-dim %.4f not above flat %.4f", res.MultiD.Mean, res.Flat.Mean)
	}
	if len(res.Table1) == 0 {
		t.Fatal("table1 empty")
	}
	// Rows sorted by #Tags descending, stats positive.
	for i, r := range res.Table1 {
		if r.Tags <= 0 || r.Atts <= 0 || r.Tables <= 0 || r.Reps <= 0 {
			t.Errorf("row %d has nonpositive stats: %+v", i, r)
		}
		if i > 0 && r.Tags > res.Table1[i-1].Tags {
			t.Error("table1 not sorted by #Tags descending")
		}
		if r.Reps > r.Atts {
			t.Errorf("row %d reps %d > atts %d", i, r.Reps, r.Atts)
		}
	}
	if !strings.Contains(buf.String(), "table1") {
		t.Error("table1 not printed")
	}
}

func TestFigure3Shapes(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure3(quick(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations recorded")
	}
	// Pruning visits less than everything on average (paper: < 50%).
	if res.StatesFrac.Mean >= 1 {
		t.Errorf("pruning ineffective: states mean %v", res.StatesFrac.Mean)
	}
	if res.AttrsFrac.Mean >= 1 {
		t.Errorf("pruning ineffective: attrs mean %v", res.AttrsFrac.Mean)
	}
	if res.StatesFrac.Max > 1.01 || res.AttrsFrac.Max > 1.01 {
		t.Errorf("visit fractions exceed 1: %+v %+v", res.StatesFrac, res.AttrsFrac)
	}
	if runtime.GOARCH != "amd64" {
		// Go may fuse multiply-adds on other architectures, which moves
		// the search; the means were captured on amd64.
		t.Skipf("fig3 means pinned on amd64, running on %s", runtime.GOARCH)
	}
	for _, g := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"states", res.StatesFrac.Mean, fig3StatesMeanGolden},
		{"domains", res.AttrsFrac.Mean, fig3AttrsMeanGolden},
		{"domains with representatives", res.ApproxAttrsFrac.Mean, fig3ApproxAttrsMeanGolden},
	} {
		if bits := math.Float64bits(g.got); bits != g.want {
			t.Errorf("%s visited mean %v (%#x), golden %v (%#x)", g.name, g.got, bits, math.Float64frombits(g.want), g.want)
		}
	}
}

// The quick-mode Figure 3 means, bit for bit (0.5310, 0.5389 and
// 0.0539). They pin the pruning counts and the fractions' denominators
// as the progress stream reports them.
const (
	fig3StatesMeanGolden      = 0x3fe0fd99f9d176b0
	fig3AttrsMeanGolden       = 0x3fe13e93e93e93eb
	fig3ApproxAttrsMeanGolden = 0x3fab9a5bc7dea016
)

func TestTimingShapes(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Timing(quick(&buf))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TimingRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	clustering, ok1 := byName["clustering"]
	oneDim, ok2 := byName["1-dim"]
	approx, ok3 := byName["2-dim approx"]
	twoDim, ok4 := byName["2-dim"]
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatalf("missing rows: %v", rows)
	}
	// Paper ordering: clustering alone is far cheaper than any
	// optimization; the approximation is cheaper than its exact
	// counterpart.
	if clustering.Duration >= oneDim.Duration {
		t.Errorf("clustering %v not cheaper than 1-dim %v", clustering.Duration, oneDim.Duration)
	}
	if approx.Duration >= twoDim.Duration {
		t.Errorf("approx %v not cheaper than exact 2-dim %v", approx.Duration, twoDim.Duration)
	}
}

func TestUserStudyShapes(t *testing.T) {
	var buf bytes.Buffer
	res, err := UserStudy(quick(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != 24 {
		t.Fatalf("sessions = %d", len(res.Sessions))
	}
	if res.MaxNav == 0 && res.MaxSearch == 0 {
		t.Fatal("nobody found anything")
	}
	// H2 shape: navigation at least as disjoint as search (median).
	if res.DisjointnessTest.MedianA < res.DisjointnessTest.MedianB-0.05 {
		t.Errorf("nav disjointness median %.3f below search %.3f",
			res.DisjointnessTest.MedianA, res.DisjointnessTest.MedianB)
	}
	if !strings.Contains(buf.String(), "H2") {
		t.Error("study report not printed")
	}
}

func TestScalabilityShapes(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Scalability(quick(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.Success <= 0 || r.Success > 1 {
			t.Errorf("row %d success %v", i, r.Success)
		}
		if r.Success <= r.FlatSuccess {
			t.Errorf("row %d: multi-dim %v not above flat %v", i, r.Success, r.FlatSuccess)
		}
		if i > 0 && r.Tables <= rows[i-1].Tables {
			t.Error("sizes not increasing")
		}
	}
	if !strings.Contains(buf.String(), "scalability") {
		t.Error("report not printed")
	}
}

func TestAblationsShapes(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Ablations(quick(&buf))
	if err != nil {
		t.Fatal(err)
	}
	byGroup := map[string]map[string]float64{}
	for _, r := range rows {
		if r.Effectiveness < 0 || r.Effectiveness > 1 {
			t.Errorf("%s/%s eff %v", r.Group, r.Name, r.Effectiveness)
		}
		if byGroup[r.Group] == nil {
			byGroup[r.Group] = map[string]float64{}
		}
		byGroup[r.Group][r.Name] = r.Effectiveness
	}
	// γ is monotone on this benchmark: more signal, better routing.
	g := byGroup["gamma"]
	if !(g["2"] < g["10"] && g["10"] < g["40"]) {
		t.Errorf("gamma sweep not monotone: %v", g)
	}
	// Greedy acceptance is at least as good as the literal Eq 9.
	a := byGroup["acceptance"]
	if a["greedy"] < a["eq9"]-0.02 {
		t.Errorf("greedy %v below eq9 %v", a["greedy"], a["eq9"])
	}
	for _, group := range []string{"gamma", "acceptance", "reps", "linkage", "initial"} {
		if len(byGroup[group]) == 0 {
			t.Errorf("missing ablation group %s", group)
		}
	}
}

func TestTaxonomyShapes(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Taxonomy(quick(&buf))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TaxonomyRow{}
	for _, r := range rows {
		if r.Effectiveness < 0 || r.Effectiveness > 1 || r.Success < 0 || r.Success > 1 {
			t.Errorf("row %+v out of range", r)
		}
		byName[r.Name] = r
	}
	// The taxonomy is shallower than the learned hierarchy…
	if byName["taxonomy"].Depth >= byName["clustering"].Depth {
		t.Errorf("taxonomy depth %d not below clustering %d",
			byName["taxonomy"].Depth, byName["clustering"].Depth)
	}
	// …and the learned organizations beat it under the navigation model
	// (the paper's "taxonomies are not designed for navigation").
	if byName["optimized"].Effectiveness <= byName["taxonomy"].Effectiveness {
		t.Errorf("optimized %v not above taxonomy %v",
			byName["optimized"].Effectiveness, byName["taxonomy"].Effectiveness)
	}
	// Everything beats flat.
	for _, name := range []string{"taxonomy", "clustering", "optimized"} {
		if byName[name].Effectiveness <= byName["flat"].Effectiveness {
			t.Errorf("%s not above flat", name)
		}
	}
}
