package core

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"lakenav/internal/cluster"
	"lakenav/internal/lake"
	"lakenav/vector"
)

// MultiDim is a k-dimensional organization (Sec 2.5): tags are
// partitioned into groups and each group gets its own organization. A
// table is discovered in the multi-dimensional organization when it is
// discovered in any dimension (Eq 8).
type MultiDim struct {
	Lake *lake.Lake
	Orgs []*Org
	// TagGroups[i] lists the tags of dimension i.
	TagGroups [][]string
	// Truncated marks a build whose optimization was stopped early by
	// context cancellation: every dimension is structurally valid, but
	// at least one carries its best-so-far rather than converged search
	// result.
	Truncated bool
}

// MultiDimConfig controls multi-dimensional construction.
type MultiDimConfig struct {
	// K is the number of dimensions. The paper uses k-medoids over tag
	// topic vectors to form the groups (Sec 4.3.4).
	K int
	// Build configures per-dimension construction (Gamma, Linkage).
	Build BuildConfig
	// Optimize configures the per-dimension local search. A nil value
	// skips optimization (dimensions stay as clustered hierarchies).
	Optimize *OptimizeConfig
	// Seed drives tag clustering; per-dimension searches derive their
	// seeds from it.
	Seed int64
	// Parallel optimizes dimensions concurrently, as the paper does
	// ("dimensions are optimized independently and in parallel").
	Parallel bool
	// Checkpoint enables per-dimension optimizer checkpointing (it
	// requires Optimize != nil): dimension i writes atomically to
	// Checkpoint.Path + ".dim<i>". A dimension that finishes its search
	// uninterrupted removes its file.
	Checkpoint *CheckpointConfig
	// Resume, together with Checkpoint, resumes every dimension's
	// search whose checkpoint file exists, parses, and matches the
	// search's dimension, tag group and seed; stale or corrupt files are
	// ignored and that search starts from scratch — resume never fails
	// a build.
	Resume bool
}

// DimCheckpointPath returns the checkpoint file used for dimension dim
// under a base path.
func DimCheckpointPath(base string, dim int) string {
	return fmt.Sprintf("%s.dim%d", base, dim)
}

// BuildMultiDim partitions the lake's organizable tags into cfg.K groups
// with k-medoids over tag topic vectors, builds a clustered organization
// per group, and (optionally) optimizes each. It returns the
// organization and per-dimension search stats (nil entries when
// optimization is skipped).
func BuildMultiDim(l *lake.Lake, cfg MultiDimConfig) (*MultiDim, []*OptimizeStats, error) {
	return BuildMultiDimContext(context.Background(), l, cfg)
}

// BuildMultiDimContext is BuildMultiDim with cancellation and
// checkpoint/resume support. Cancellation degrades gracefully: the
// clustered initialization of every dimension always completes (it is
// the cheap phase), the local searches stop at their next safe
// iteration boundary, and the result is a fully valid — if less
// optimized — organization with Truncated set. An error is returned
// only for real construction failures, never for cancellation.
func BuildMultiDimContext(ctx context.Context, l *lake.Lake, cfg MultiDimConfig) (*MultiDim, []*OptimizeStats, error) {
	if cfg.K < 1 {
		return nil, nil, fmt.Errorf("core: multidim K must be >= 1, got %d", cfg.K)
	}
	if l.Dim() == 0 {
		return nil, nil, fmt.Errorf("core: lake topics not computed")
	}

	// Organizable tags: those with embeddable text attributes.
	baseTags := cfg.Build.Tags
	if baseTags == nil {
		baseTags = l.Tags()
	}
	var tags []string
	var topics []vector.Vector
	for _, tag := range baseTags {
		any := false
		for _, a := range l.TextTagAttrs(tag) {
			if l.Attr(a).EmbCount > 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		if tv, ok := l.TagTopic(tag); ok {
			tags = append(tags, tag)
			topics = append(topics, tv)
		}
	}
	if len(tags) == 0 {
		return nil, nil, fmt.Errorf("core: no organizable tags")
	}

	k := cfg.K
	if k > len(tags) {
		k = len(tags)
	}
	var groups [][]string
	if k == 1 {
		groups = [][]string{tags}
	} else {
		// The clustering draws from the same serializable xorshift64*
		// source as the searches (rng.go): tag grouping is then a pure
		// function of the seed, and no hidden-state generator exists
		// anywhere on the construction path.
		rng := newSearchRand(newSearchSource(cfg.Seed))
		res, err := cluster.KMedoidsVectors(topics, k, rng, 100)
		if err != nil {
			return nil, nil, fmt.Errorf("core: tag clustering: %w", err)
		}
		groups = make([][]string, k)
		for i, c := range res.Assign {
			groups[c] = append(groups[c], tags[i])
		}
	}
	// Drop empty groups (k-medoids can starve a cluster).
	var nonEmpty [][]string
	for _, g := range groups {
		if len(g) > 0 {
			nonEmpty = append(nonEmpty, g)
		}
	}
	groups = nonEmpty

	m := &MultiDim{Lake: l, Orgs: make([]*Org, len(groups)), TagGroups: groups}
	stats := make([]*OptimizeStats, len(groups))
	errs := make([]error, len(groups))

	buildOne := func(i int) {
		bc := cfg.Build
		bc.Tags = groups[i]
		if cfg.Optimize == nil {
			o, err := NewClustered(l, bc)
			if err != nil {
				errs[i] = fmt.Errorf("core: dimension %d: %w", i, err)
				return
			}
			m.Orgs[i] = o
			return
		}
		oc := *cfg.Optimize
		oc.Seed = cfg.Seed + int64(i)*7919
		if oc.Progress != nil {
			// Dimensions search concurrently; stamp each one's events so
			// a shared consumer can demultiplex them.
			dim, base := i, oc.Progress
			oc.Progress = func(p ProgressEvent) {
				p.Dim = dim
				base(p)
			}
		}
		if cfg.Checkpoint != nil {
			cc := *cfg.Checkpoint
			cc.Path = DimCheckpointPath(cfg.Checkpoint.Path, i)
			cc.Dim = i
			cc.TagGroup = groups[i]
			oc.Checkpoint = &cc
		}
		var o *Org
		var st *OptimizeStats
		if cfg.Resume {
			o, st = resumeSearch(ctx, l, oc)
		}
		if o == nil {
			built, err := NewClustered(l, bc)
			if err == nil {
				o, st, err = OptimizeContext(ctx, built, oc)
			}
			if err != nil {
				errs[i] = fmt.Errorf("core: dimension %d: %w", i, err)
				return
			}
		}
		if oc.Checkpoint != nil && oc.Checkpoint.Path != "" && !st.Truncated {
			// The search converged; the checkpoint has served its
			// purpose and must not seed a future unrelated build. A
			// failed removal is harmless — resume validation rejects a
			// stale file — so the error is deliberately dropped.
			_ = os.Remove(oc.Checkpoint.Path)
		}
		stats[i] = st
		m.Orgs[i] = o
	}

	if cfg.Parallel && len(groups) > 1 {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(groups) {
			workers = len(groups)
		}
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					buildOne(i)
				}
			}()
		}
		for _, i := range largestFirst(l, groups) {
			work <- i
		}
		close(work)
		wg.Wait()
	} else {
		for i := range groups {
			buildOne(i)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	for _, st := range stats {
		if st != nil && st.Truncated {
			m.Truncated = true
		}
	}
	return m, stats, nil
}

// largestFirst returns the dimension indices in descending order of
// their groups' text-attribute counts (each tag's text attributes,
// summed over the group), ties by index. The dimension pool takes them
// in this order, so the largest searches start first and the pool does
// not end with one worker running a large dimension alone. A
// dimension's seed, checkpoint path and Dim stamp come from its index,
// so the order changes when a dimension runs, not what it computes.
func largestFirst(l *lake.Lake, groups [][]string) []int {
	size := make([]int, len(groups))
	order := make([]int, len(groups))
	for i, g := range groups {
		order[i] = i
		for _, tag := range g {
			size[i] += len(l.TextTagAttrs(tag))
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return size[order[a]] > size[order[b]] })
	return order
}

// resumeSearch tries to continue the search cfg describes from its
// checkpoint file. Any failure — missing file, one that does not
// decode, a wrong dimension, tag group or seed, an import that no
// longer matches the lake — returns (nil, nil) and the caller searches
// from scratch; a checkpoint can speed a restart up but can never
// break one.
func resumeSearch(ctx context.Context, l *lake.Lake, cfg OptimizeConfig) (*Org, *OptimizeStats) {
	c := cfg.Checkpoint
	if c == nil || c.Path == "" {
		return nil, nil
	}
	ck, err := LoadCheckpoint(c.Path)
	if err != nil || !ck.MatchesDimension(c.Dim, c.TagGroup) || ck.Config.Seed != cfg.Seed {
		return nil, nil
	}
	// The checkpoint dictates the trajectory; the caller's Progress
	// callback carries over.
	o, st, err := ResumeOptimizeRuntime(ctx, l, ck, cfg.Progress)
	if err != nil {
		return nil, nil
	}
	return o, st
}

// AttrProbs returns P(A|M) for every attribute reachable in any
// dimension: 1 − ∏_i (1 − P(A|O_i)) (the per-attribute form of Eq 8).
func (m *MultiDim) AttrProbs() map[lake.AttrID]float64 {
	fail := make(map[lake.AttrID]float64)
	for _, o := range m.Orgs {
		probs := o.AttrDiscoveryProbs()
		for i, a := range o.Attrs() {
			f, ok := fail[a]
			if !ok {
				f = 1
			}
			fail[a] = f * (1 - probs[i])
		}
	}
	out := make(map[lake.AttrID]float64, len(fail))
	for a, f := range fail {
		out[a] = 1 - f
	}
	return out
}

// TableProb returns P(T|M) (Eq 8) from precomputed AttrProbs.
func (m *MultiDim) TableProb(t *lake.Table, attrProbs map[lake.AttrID]float64) float64 {
	fail := 1.0
	for _, a := range t.Attrs {
		if p, ok := attrProbs[a]; ok {
			fail *= 1 - p
		}
	}
	return 1 - fail
}

// Effectiveness returns the mean P(T|M) over the lake's tables.
func (m *MultiDim) Effectiveness() float64 {
	if len(m.Lake.Tables) == 0 {
		return 0
	}
	probs := m.AttrProbs()
	var sum float64
	live := 0
	for _, t := range m.Lake.Tables {
		if t.Removed {
			continue
		}
		sum += m.TableProb(t, probs)
		live++
	}
	if live == 0 {
		return 0
	}
	return sum / float64(live)
}
