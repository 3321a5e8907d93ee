package lakenav

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md §4) plus ablations over the design choices
// and micro-benchmarks of the hot paths. Benchmarks run the quick-scale
// experiments and expose the headline quantities as custom metrics;
// full-scale runs (paper-sized TagCloud, 750-table Socrata) are driven
// by cmd/experiments and recorded in EXPERIMENTS.md.
//
//	go test -bench=. -benchmem

import (
	"context"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"lakenav/internal/cluster"
	"lakenav/internal/core"
	"lakenav/internal/experiments"
	"lakenav/internal/hybrid"
	"lakenav/internal/synth"
	"lakenav/internal/textsearch"
	"lakenav/vector"
)

func quickOpts(seed int64) experiments.Options {
	return experiments.Options{Out: io.Discard, Quick: true, Seed: seed}
}

// BenchmarkFigure2aTagCloud regenerates Figure 2(a): success
// probabilities of baseline/clustering/N-dim/enriched/approx
// organizations on the TagCloud benchmark.
func BenchmarkFigure2aTagCloud(b *testing.B) {
	var last *experiments.Fig2aResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2a(quickOpts(7))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Get("baseline").Mean, "baseline-success")
	b.ReportMetric(last.Get("clustering").Mean, "clustering-success")
	b.ReportMetric(last.Get("2-dim").Mean, "2dim-success")
	b.ReportMetric(last.Get("2-dim approx").Mean, "2dim-approx-success")
}

// BenchmarkFigure2bSocrata regenerates Figure 2(b): the
// multi-dimensional organization against the flat tag baseline on the
// Socrata-like lake.
func BenchmarkFigure2bSocrata(b *testing.B) {
	var last *experiments.Fig2bResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2b(quickOpts(7))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Flat.Mean, "flat-success")
	b.ReportMetric(last.MultiD.Mean, "multidim-success")
	if last.Flat.Mean > 0 {
		b.ReportMetric(last.MultiD.Mean/last.Flat.Mean, "improvement-x")
	}
}

// BenchmarkTable1Socrata regenerates Table 1: per-dimension statistics
// of the Socrata organizations.
func BenchmarkTable1Socrata(b *testing.B) {
	var rows []experiments.DimStats
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(quickOpts(7))
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	b.ReportMetric(float64(len(rows)), "dimensions")
	total := 0
	for _, r := range rows {
		total += r.Atts
	}
	b.ReportMetric(float64(total), "attrs-covered")
}

// BenchmarkFigure3Pruning regenerates Figure 3: the fraction of states
// and attribute domains re-evaluated per search iteration.
func BenchmarkFigure3Pruning(b *testing.B) {
	var last *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(quickOpts(7))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.StatesFrac.Mean, "states-visited-frac")
	b.ReportMetric(last.AttrsFrac.Mean, "domains-visited-frac")
	b.ReportMetric(last.ApproxAttrsFrac.Mean, "approx-domains-frac")
}

// BenchmarkConstructionTimes regenerates the Sec 4.3.2 timing table.
func BenchmarkConstructionTimes(b *testing.B) {
	var rows []experiments.TimingRow
	for i := 0; i < b.N; i++ {
		r, err := experiments.Timing(quickOpts(7))
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	for _, r := range rows {
		switch r.Name {
		case "clustering":
			b.ReportMetric(r.Duration.Seconds(), "clustering-s")
		case "2-dim":
			b.ReportMetric(r.Duration.Seconds(), "2dim-s")
		case "2-dim approx":
			b.ReportMetric(r.Duration.Seconds(), "2dim-approx-s")
		}
	}
}

// BenchmarkUserStudy regenerates the Sec 4.4 user study simulation.
func BenchmarkUserStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.UserStudy(quickOpts(7))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.DisjointnessTest.MedianA, "nav-disjointness")
			b.ReportMetric(res.DisjointnessTest.MedianB, "search-disjointness")
			b.ReportMetric(res.CrossModalIntersection, "cross-intersection")
		}
	}
}

// --- Ablations over the design choices called out in DESIGN.md §5 ---

// ablationLake builds one shared TagCloud instance.
func ablationLake(b *testing.B) *synth.TagCloud {
	b.Helper()
	cfg := synth.SmallTagCloudConfig()
	cfg.Seed = 11
	tc, err := synth.GenerateTagCloud(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tc
}

// BenchmarkAblationGamma sweeps the navigation model's γ: small values
// drown topic signal (everything looks flat), large values saturate.
func BenchmarkAblationGamma(b *testing.B) {
	tc := ablationLake(b)
	for _, gamma := range []float64{2, 5, 10, 20, 40} {
		b.Run(map[float64]string{2: "g2", 5: "g5", 10: "g10", 20: "g20", 40: "g40"}[gamma], func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				org, err := core.NewClustered(tc.Lake, core.BuildConfig{Gamma: gamma})
				if err != nil {
					b.Fatal(err)
				}
				eff = org.Effectiveness()
			}
			b.ReportMetric(eff, "effectiveness")
		})
	}
}

// BenchmarkAblationAcceptance compares the acceptance rules: the
// paper-literal Eq 9 Metropolis (exponent 1), a sharpened variant, and
// greedy. Greedy wins on every workload we generate; Eq 9 erodes (see
// OptimizeConfig.AcceptExponent).
func BenchmarkAblationAcceptance(b *testing.B) {
	tc := ablationLake(b)
	for name, exp := range map[string]float64{"eq9": 1, "sharp12": 12, "sharp200": 200, "greedy": -1} {
		b.Run(name, func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				org, err := core.NewClustered(tc.Lake, core.BuildConfig{})
				if err != nil {
					b.Fatal(err)
				}
				st, err := core.Optimize(org, core.OptimizeConfig{
					MaxIterations: 150, Window: 80, MinRelImprovement: 1e-4,
					AcceptExponent: exp, RepFraction: 0.1, Seed: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				final = st.FinalEff
			}
			b.ReportMetric(final, "final-eff")
		})
	}
}

// BenchmarkAblationRepFraction sweeps the representative fraction: the
// evaluation cost drops with the fraction while the optimized quality
// degrades gracefully (the paper uses 10%).
func BenchmarkAblationRepFraction(b *testing.B) {
	tc := ablationLake(b)
	for name, frac := range map[string]float64{"exact": 0, "f25": 0.25, "f10": 0.10, "f02": 0.02} {
		b.Run(name, func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				org, err := core.NewClustered(tc.Lake, core.BuildConfig{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Optimize(org, core.OptimizeConfig{
					MaxIterations: 100, Window: 60, RepFraction: frac, Seed: 3,
				}); err != nil {
					b.Fatal(err)
				}
				eff = org.Effectiveness() // exact, for comparability
			}
			b.ReportMetric(eff, "exact-eff")
		})
	}
}

// BenchmarkAblationLinkage compares agglomerative linkages for the
// initial organization.
func BenchmarkAblationLinkage(b *testing.B) {
	tc := ablationLake(b)
	for name, linkage := range map[string]cluster.Linkage{
		"average": cluster.Average, "complete": cluster.Complete, "single": cluster.Single,
	} {
		b.Run(name, func(b *testing.B) {
			var eff float64
			for i := 0; i < b.N; i++ {
				org, err := core.NewClustered(tc.Lake, core.BuildConfig{Linkage: linkage})
				if err != nil {
					b.Fatal(err)
				}
				eff = org.Effectiveness()
			}
			b.ReportMetric(eff, "effectiveness")
		})
	}
}

// BenchmarkAblationInitialOrg compares starting points for the local
// search: the paper's clustering initialization versus a random
// hierarchy and the flat baseline.
func BenchmarkAblationInitialOrg(b *testing.B) {
	tc := ablationLake(b)
	builders := map[string]func() (*core.Org, error){
		"clustered": func() (*core.Org, error) { return core.NewClustered(tc.Lake, core.BuildConfig{}) },
		"random": func() (*core.Org, error) {
			return core.NewRandomHierarchy(tc.Lake, core.BuildConfig{}, rand.New(rand.NewSource(5)))
		},
		"flat": func() (*core.Org, error) { return core.NewFlat(tc.Lake, core.BuildConfig{}) },
	}
	for name, build := range builders {
		b.Run(name, func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				org, err := build()
				if err != nil {
					b.Fatal(err)
				}
				st, err := core.Optimize(org, core.OptimizeConfig{
					MaxIterations: 100, Window: 60, RepFraction: 0.1, Seed: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				final = st.FinalEff
			}
			b.ReportMetric(final, "final-eff")
		})
	}
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkIncrementalReevaluate measures one pruned incremental
// re-evaluation after an operation, against which the full O(Q·E)
// recompute is the baseline.
func BenchmarkIncrementalReevaluate(b *testing.B) {
	tc := ablationLake(b)
	org, err := core.NewClustered(tc.Lake, core.BuildConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ev, err := core.NewEvaluator(org, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Pick a legal AddParent to toggle.
	var n, s core.StateID = -1, -1
	for _, st := range org.States {
		if st.Deleted() || st.Kind != core.KindTag {
			continue
		}
		for _, cand := range org.States {
			if cand.Kind == core.KindInterior && !cand.Deleted() && org.CanAddParent(cand.ID, st.ID) {
				n, s = cand.ID, st.ID
				break
			}
		}
		if n >= 0 {
			break
		}
	}
	if n < 0 {
		b.Skip("no legal AddParent on this instance")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := org.BeginChanges()
		u := org.AddParentOp(n, s)
		org.EndChanges()
		ev.Reevaluate(cs)
		org.Undo(u)
		ev.Rollback()
	}
}

// socrataLakeFile saves the default 750-table Socrata lake, the
// lakebench build workload's input, as JSON and returns its path.
func socrataLakeFile(b *testing.B) string {
	soc, err := synth.GenerateSocrata(synth.DefaultSocrataConfig())
	if err != nil {
		b.Fatal(err)
	}
	l := NewLake()
	for _, t := range soc.Lake.Tables {
		cols := make([]Column, len(t.Attrs))
		for c, id := range t.Attrs {
			a := soc.Lake.Attr(id)
			cols[c] = Column{Name: a.Name, Values: a.Values}
		}
		l.AddTable(t.Name, t.Tags, cols...)
	}
	path := filepath.Join(b.TempDir(), "lake.json")
	if err := l.Save(path, FormatJSON); err != nil {
		b.Fatal(err)
	}
	return path
}

// socrata10DimConfig is the lakebench build workload's construction:
// 10 dimensions, 150 proposals per dimension.
func socrata10DimConfig() Config {
	cfg := DefaultConfig()
	cfg.Dimensions = 10
	cfg.MaxIterations = 150
	return cfg
}

// BenchmarkOrganizeSocrata10Dim times one construction of the lakebench
// build workload's shape: LoadJSON of the default 750-table Socrata
// lake and OrganizeContext into 10 dimensions with 150 proposals per
// dimension. It needs no server, so -cpuprofile and -memprofile see
// construction alone:
//
//	go test -run '^$' -bench OrganizeSocrata10Dim -benchtime 20x -cpuprofile cpu.out
func BenchmarkOrganizeSocrata10Dim(b *testing.B) {
	path := socrataLakeFile(b)
	cfg := socrata10DimConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built, err := LoadJSON(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := OrganizeContext(context.Background(), built, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadMultiDim10Dim times the organization half of a navserver
// cold start on the lakebench build workload's inputs: LoadOrganization
// of a 10-dimension org.bin over the 750-table Socrata lake, whose
// topics are derived before the timer starts. The keyword-index half is
// textsearch's BenchmarkIndexLake.
func BenchmarkLoadMultiDim10Dim(b *testing.B) {
	l, err := LoadJSON(socrataLakeFile(b))
	if err != nil {
		b.Fatal(err)
	}
	org, err := OrganizeContext(context.Background(), l, socrata10DimConfig())
	if err != nil {
		b.Fatal(err)
	}
	orgPath := filepath.Join(b.TempDir(), "org.bin")
	if err := org.Save(orgPath, FormatBin); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadOrganization(l, orgPath); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAgglomerative measures the initial-organization clustering
// over tag topic vectors.
func BenchmarkAgglomerative(b *testing.B) {
	tc := ablationLake(b)
	var vecs []vector.Vector
	for _, tag := range tc.Lake.Tags() {
		if v, ok := tc.Lake.TagTopic(tag); ok {
			vecs = append(vecs, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.AgglomerativeVectors(vecs, cluster.Average)
	}
}

// BenchmarkKMedoids measures the multi-dimensional tag grouping.
func BenchmarkKMedoids(b *testing.B) {
	tc := ablationLake(b)
	var vecs []vector.Vector
	for _, tag := range tc.Lake.Tags() {
		if v, ok := tc.Lake.TagTopic(tag); ok {
			vecs = append(vecs, v)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMedoidsVectors(vecs, 4, rng, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBM25Search measures the keyword-search comparator.
func BenchmarkBM25Search(b *testing.B) {
	tc := ablationLake(b)
	idx := textsearch.IndexLake(tc.Lake)
	queries := []string{"topic000_w0001", "topic003_w0002 topic003_w0005", "topic007_w0000"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search(queries[i%len(queries)], 10)
	}
}

// BenchmarkEvaluateSuccess measures the full Sec 4.2 success-probability
// evaluation of one organization.
func BenchmarkEvaluateSuccess(b *testing.B) {
	tc := ablationLake(b)
	org, err := core.NewClustered(tc.Lake, core.BuildConfig{})
	if err != nil {
		b.Fatal(err)
	}
	probs := core.AttrProbMap(org)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.EvaluateSuccess(tc.Lake, probs, core.DefaultTheta)
	}
}

// BenchmarkOrgExportImport measures the cold-start persistence cycle.
func BenchmarkOrgExportImport(b *testing.B) {
	tc := ablationLake(b)
	org, err := core.NewClustered(tc.Lake, core.BuildConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Import(tc.Lake, org.Export()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHybridSearch measures the unified search+navigation lookup.
func BenchmarkHybridSearch(b *testing.B) {
	tc := ablationLake(b)
	m, _, err := core.BuildMultiDim(tc.Lake, core.MultiDimConfig{K: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	session, err := hybrid.NewSession(tc.Lake, m, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session.Search("topic001_w0001", 10)
	}
}
