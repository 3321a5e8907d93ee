package experiments

import (
	"fmt"
	"time"

	"lakenav/internal/core"
	"lakenav/internal/lake"
	"lakenav/internal/synth"
)

// OrgSeries is one curve of Figure 2: the per-table success
// probabilities of one organization variant, ascending.
type OrgSeries struct {
	Name   string
	Sorted []float64
	Mean   float64
	// BuildTime is the wall-clock construction cost, feeding the
	// Sec 4.3.2 timing table.
	BuildTime time.Duration
}

// Fig2aResult holds every curve of Figure 2(a) in presentation order.
type Fig2aResult struct {
	Series []OrgSeries
	// Lake statistics for the report header.
	Tables, Attrs, Tags int
}

// Get returns the named series, or nil.
//
//lakelint:ignore deadexport -- series lookup shared by the Figure 2(a) test and benchmark
func (r *Fig2aResult) Get(name string) *OrgSeries {
	for i := range r.Series {
		if r.Series[i].Name == name {
			return &r.Series[i]
		}
	}
	return nil
}

// tagCloudConfig returns the benchmark at full or quick scale.
func tagCloudConfig(opts Options) synth.TagCloudConfig {
	cfg := synth.PaperTagCloudConfig()
	cfg.Seed = opts.Seed + 1
	if opts.Quick {
		cfg.Tags = 60
		cfg.Attributes = 360
		cfg.MaxValues = 120
		cfg.Dim = 32
		cfg.SuperTopics = 8
	}
	return cfg
}

// optimizeConfig returns the per-dimension search budget.
func optimizeConfig(opts Options, repFraction float64) *core.OptimizeConfig {
	oc := &core.OptimizeConfig{
		RepFraction:       repFraction,
		MaxIterations:     200,
		Window:            100,
		MinRelImprovement: 1e-4,
		Seed:              opts.Seed + 2,
	}
	if opts.Quick {
		oc.MaxIterations = 120
		oc.Window = 60
	}
	return oc
}

// Figure2a reproduces Figure 2(a): success probabilities on the TagCloud
// benchmark across organization variants.
func Figure2a(opts Options) (*Fig2aResult, error) {
	cfg := tagCloudConfig(opts)
	tc, err := synth.GenerateTagCloud(cfg)
	if err != nil {
		return nil, err
	}
	res := &Fig2aResult{
		Tables: len(tc.Lake.Tables),
		Attrs:  len(tc.Lake.Attrs),
		Tags:   len(tc.Lake.Tags()),
	}
	opts.printf("fig2a: TagCloud benchmark — %d tables, %d attributes, %d tags\n",
		res.Tables, res.Attrs, res.Tags)

	add := func(name string, probs map[lake.AttrID]float64, buildTime time.Duration) {
		s := core.EvaluateSuccess(tc.Lake, probs, core.DefaultTheta)
		series := OrgSeries{Name: name, Sorted: s.Sorted, Mean: s.Mean, BuildTime: buildTime}
		res.Series = append(res.Series, series)
		opts.printSeries(name, s.Sorted, s.Mean)
	}

	// Flat baseline: the tag-retrieval structure of open data portals.
	t0 := time.Now()
	flat, err := core.NewFlat(tc.Lake, core.BuildConfig{})
	if err != nil {
		return nil, err
	}
	add("baseline", core.AttrProbMap(flat), time.Since(t0))

	// Clustering: the branching-2 agglomerative initialization.
	t0 = time.Now()
	clus, err := core.NewClustered(tc.Lake, core.BuildConfig{})
	if err != nil {
		return nil, err
	}
	add("clustering", core.AttrProbMap(clus), time.Since(t0))

	// N-dimensional optimized organizations (exact evaluation, as the
	// paper reports for TagCloud).
	maxDim := 4
	if opts.Quick {
		maxDim = 2
	}
	for k := 1; k <= maxDim; k++ {
		t0 = time.Now()
		m, _, err := core.BuildMultiDim(tc.Lake, core.MultiDimConfig{
			K:        k,
			Optimize: optimizeConfig(opts, 0),
			Seed:     opts.Seed + int64(k),
			Parallel: true,
		})
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("%d-dim", k), m.AttrProbs(), time.Since(t0))
	}

	// Enriched 2-dim: every attribute gains its second-closest tag, then
	// a 2-dim organization is built on the enriched benchmark.
	enrichedTC, err := synth.GenerateTagCloud(cfg)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	enrichedTC.Enrich()
	m, _, err := core.BuildMultiDim(enrichedTC.Lake, core.MultiDimConfig{
		K:        2,
		Optimize: optimizeConfig(opts, 0),
		Seed:     opts.Seed + 2,
		Parallel: true,
	})
	if err != nil {
		return nil, err
	}
	enrichedBuild := time.Since(t0)
	s := core.EvaluateSuccess(enrichedTC.Lake, m.AttrProbs(), core.DefaultTheta)
	res.Series = append(res.Series, OrgSeries{Name: "enriched 2-dim", Sorted: s.Sorted, Mean: s.Mean, BuildTime: enrichedBuild})
	opts.printSeries("enriched 2-dim", s.Sorted, s.Mean)

	// 2-dim approx: the representative approximation at 10%.
	t0 = time.Now()
	ma, _, err := core.BuildMultiDim(tc.Lake, core.MultiDimConfig{
		K:        2,
		Optimize: optimizeConfig(opts, 0.1),
		Seed:     opts.Seed + 2,
		Parallel: true,
	})
	if err != nil {
		return nil, err
	}
	add("2-dim approx", ma.AttrProbs(), time.Since(t0))

	return res, nil
}
