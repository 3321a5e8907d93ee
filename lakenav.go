// Package lakenav builds navigation structures — organizations — over
// data lakes, implementing "Organizing Data Lakes for Navigation"
// (Nargesian, Pu, Zhu, Ghadiri Bashardoost, Miller; SIGMOD 2020).
//
// An organization is a DAG whose leaves are table attributes, whose
// penultimate states group attributes by metadata tag, and whose upper
// states merge tags into progressively broader topics. A user navigates
// from the root toward an attribute of interest; the library builds the
// organization that maximizes the probability of such navigation
// succeeding, under a Markov model of user behaviour.
//
// Basic use:
//
//	l := lakenav.NewLake()
//	l.AddTable("inspections", []string{"food", "safety"},
//	    lakenav.Column{Name: "facility", Values: []string{...}})
//	...
//	org, err := lakenav.Organize(l, lakenav.DefaultConfig())
//	nav := org.Navigator()       // interactive cursor over the DAG
//	probs := org.Effectiveness() // the objective the search maximized
//
// The package is a facade over internal/core (the organization model
// and local-search construction algorithm) and its substrates; see
// DESIGN.md for the system inventory.
package lakenav

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"lakenav/internal/atomicio"
	"lakenav/internal/core"
	"lakenav/internal/embedding"
	"lakenav/internal/hybrid"
	"lakenav/internal/lake"
	"lakenav/internal/textsearch"
	"lakenav/vector"
)

// Column describes one attribute when adding a table.
type Column struct {
	Name   string
	Values []string
}

// Lake is a collection of tables with tag metadata, ready to be
// organized.
type Lake struct {
	l     *lake.Lake
	model embedding.Model
	dirty bool
}

// Option configures lake construction.
type Option func(*Lake)

// WithModel substitutes the embedding model used to derive topic
// vectors. The default is a deterministic hash embedding with fastText-
// like coverage; pass an embedding store for pretrained-style vectors.
func WithModel(m embedding.Model) Option {
	return func(l *Lake) { l.model = m }
}

// NewLake returns an empty lake.
func NewLake(opts ...Option) *Lake {
	l := &Lake{
		l:     lake.New(),
		model: embedding.NewHashed(64, 1, 0.95),
	}
	for _, opt := range opts {
		opt(l)
	}
	return l
}

// AddTable appends a table with the given tags and columns.
func (l *Lake) AddTable(name string, tags []string, cols ...Column) {
	specs := make([]lake.AttrSpec, len(cols))
	for i, c := range cols {
		specs[i] = lake.AttrSpec{Name: c.Name, Values: c.Values}
	}
	l.l.AddTable(name, tags, specs...)
	l.dirty = true
}

// AddTag attaches an extra tag to a table by name; it returns false if
// no table has that name. Metadata enrichment improves discoverability
// of sparsely tagged tables.
func (l *Lake) AddTag(table, tag string) bool {
	for _, t := range l.l.Tables {
		if !t.Removed && t.Name == table {
			l.l.AddTag(t.ID, tag)
			l.dirty = true
			return true
		}
	}
	return false
}

// LoadCSVDir ingests a directory of CSV files (with optional
// <name>.meta.json sidecars carrying {"tags": [...]}) into a lake.
func LoadCSVDir(dir string, opts ...Option) (*Lake, error) {
	inner, err := lake.LoadCSVDir(dir)
	if err != nil {
		return nil, err
	}
	l := NewLake(opts...)
	l.l = inner
	l.dirty = true
	return l, nil
}

// LoadJSON reads a lake previously saved with SaveJSON.
func LoadJSON(path string, opts ...Option) (*Lake, error) {
	inner, err := lake.LoadFile(path)
	if err != nil {
		return nil, err
	}
	l := NewLake(opts...)
	l.l = inner
	l.dirty = true
	return l, nil
}

// SaveJSON writes the lake to path.
func (l *Lake) SaveJSON(path string) error { return l.l.SaveFile(path) }

// Save writes the lake to path in the given format. LoadJSON sniffs
// the magic, so either format loads back transparently.
func (l *Lake) Save(path string, f Format) error {
	switch f {
	case FormatJSON:
		return l.l.SaveFile(path)
	case FormatBin:
		return l.l.SaveFileBin(path)
	default:
		return fmt.Errorf("lakenav: unknown format %q", f)
	}
}

// Tables returns the number of live tables.
func (l *Lake) Tables() int {
	n := 0
	for _, t := range l.l.Tables {
		if !t.Removed {
			n++
		}
	}
	return n
}

// Attributes returns the number of attributes.
func (l *Lake) Attributes() int { return len(l.l.Attrs) }

// Tags returns the tag vocabulary.
func (l *Lake) Tags() []string { return l.l.Tags() }

// Stats renders the lake statistics block (counts, metadata
// distributions, embedding coverage).
func (l *Lake) Stats() string {
	l.ensureTopics()
	return lake.ComputeStats(l.l).String()
}

// ensureTopics computes topic vectors once per mutation.
func (l *Lake) ensureTopics() {
	if l.dirty || l.l.Dim() == 0 {
		l.l.ComputeTopics(l.model)
		l.dirty = false
	}
}

// Config controls organization construction.
type Config struct {
	// Dimensions is the number of organizations built over k-medoids
	// tag groups (Sec 2.5); 1 builds a single organization.
	Dimensions int
	// Gamma is the navigation model's γ (Eq 1); 0 selects the default.
	Gamma float64
	// Optimize enables the local search (Sec 3.3). When false the
	// organizations are the agglomerative-clustering initializations.
	Optimize bool
	// RepFraction in (0, 1) approximates effectiveness on that fraction
	// of representative attributes during search (Sec 3.4); 0 evaluates
	// exactly.
	RepFraction float64
	// MaxIterations caps the per-dimension search; 0 selects the
	// default.
	MaxIterations int
	// Seed makes construction reproducible.
	Seed int64
	// CheckpointPath, when non-empty, periodically snapshots the search
	// so a killed build can continue where it left off: dimension i
	// checkpoints atomically to CheckpointPath + ".dim<i>", and a clean
	// completion removes the files. Requires Optimize.
	CheckpointPath string
	// CheckpointEvery is how many accepted operations accumulate between
	// snapshots; 0 selects the default (100).
	CheckpointEvery int
	// Resume continues every dimension's search whose checkpoint file
	// exists and matches (same seed, same tag group). Stale or corrupt
	// files are ignored and that search starts from scratch — resuming
	// can speed a restart up but never fail it.
	Resume bool
	// Progress, when non-nil, receives one event per optimizer
	// iteration plus a closing event per search, letting callers watch
	// a long build converge live (the CLI streams these as NDJSON via
	// -progress; navserver exports them as /metrics gauges). Dimensions
	// build concurrently, so the callback must be goroutine-safe and
	// fast. It is observation only — the built organization is
	// bit-identical with or without it — and requires Optimize (no
	// search, no events).
	Progress func(ProgressEvent)
}

// ProgressEvent is one observation of a running construction search:
// which dimension (Dim), its counters, its effectiveness, and the
// share of the organization the iteration re-evaluated
// (StatesVisitedFrac, AttrsVisitedFrac).
type ProgressEvent = core.ProgressEvent

// DefaultConfig returns a single optimized dimension with the paper's
// 10% representative approximation.
func DefaultConfig() Config {
	return Config{Dimensions: 1, Optimize: true, RepFraction: 0.1, Seed: 1}
}

// Organization is a built (multi-dimensional) navigation structure.
type Organization struct {
	m    *core.MultiDim
	lake *Lake
}

// Organize builds an organization over the lake per cfg.
func Organize(l *Lake, cfg Config) (*Organization, error) {
	return OrganizeContext(context.Background(), l, cfg)
}

// OrganizeContext is Organize with cancellation and checkpoint/resume
// support. Cancellation degrades gracefully: the construction stops the
// local search at its next safe iteration boundary and returns the best
// organization found so far — structurally valid and usable, with
// Truncated reporting true — rather than an error. Combine a deadline
// with CheckpointPath to bound build time while keeping the option of
// finishing the search later with Resume.
func OrganizeContext(ctx context.Context, l *Lake, cfg Config) (*Organization, error) {
	if cfg.Dimensions < 1 {
		return nil, fmt.Errorf("lakenav: Dimensions must be >= 1, got %d", cfg.Dimensions)
	}
	if cfg.CheckpointPath != "" && !cfg.Optimize {
		return nil, fmt.Errorf("lakenav: CheckpointPath requires Optimize (checkpoints snapshot the search)")
	}
	l.ensureTopics()
	var opt *core.OptimizeConfig
	if cfg.Optimize {
		opt = &core.OptimizeConfig{
			RepFraction:   cfg.RepFraction,
			MaxIterations: cfg.MaxIterations,
			Seed:          cfg.Seed,
			Progress:      cfg.Progress,
		}
	}
	mc := core.MultiDimConfig{
		K:        cfg.Dimensions,
		Build:    core.BuildConfig{Gamma: cfg.Gamma},
		Optimize: opt,
		Seed:     cfg.Seed,
		Parallel: true,
	}
	if cfg.CheckpointPath != "" {
		mc.Checkpoint = &core.CheckpointConfig{
			Path:          cfg.CheckpointPath,
			EveryAccepted: cfg.CheckpointEvery,
		}
		mc.Resume = cfg.Resume
	}
	m, _, err := core.BuildMultiDimContext(ctx, l.l, mc)
	if err != nil {
		return nil, err
	}
	return &Organization{m: m, lake: l}, nil
}

// Dimensions returns the number of dimensions actually built (empty tag
// groups are dropped).
func (o *Organization) Dimensions() int { return len(o.m.Orgs) }

// Truncated reports whether construction was stopped early by context
// cancellation or deadline: the organization is valid and usable, but at
// least one dimension carries its best-so-far search state rather than a
// converged result. Re-running with Resume finishes the search.
func (o *Organization) Truncated() bool { return o.m.Truncated }

// Effectiveness returns P(T|O): the mean probability of discovering a
// table by navigation (Eq 6/8), the objective construction maximizes.
func (o *Organization) Effectiveness() float64 { return o.m.Effectiveness() }

// SuccessProbability evaluates the Sec 4.2 success measure at the given
// similarity threshold (0 selects the paper's 0.9) and returns the mean
// per-table success probability.
func (o *Organization) SuccessProbability(theta float64) float64 {
	return core.EvaluateSuccess(o.lake.l, o.m.AttrProbs(), theta).Mean
}

// TableSuccess returns each table's success probability by table name.
func (o *Organization) TableSuccess(theta float64) map[string]float64 {
	res := core.EvaluateSuccess(o.lake.l, o.m.AttrProbs(), theta)
	out := make(map[string]float64, len(res.PerTable))
	for i, p := range res.PerTable {
		if o.lake.l.Tables[i].Removed {
			continue
		}
		out[o.lake.l.Tables[i].Name] = p
	}
	return out
}

// QueryTopic embeds a free-text query into the lake's topic space. It
// returns false when no query term is covered by the embedding model —
// the same condition under which Suggest and Walk return nil. The
// topic vector is the cache key domain of the serving layer
// (internal/serve): identical queries embed to identical vectors.
func (o *Organization) QueryTopic(query string) (vector.Vector, bool) {
	topic, _, ok := embedding.MeanVector(o.lake.model, []string{query})
	return topic, ok
}

// Warm forces the lazily computed per-dimension navigation caches
// (topological order, level map, attribute index) so that a structure
// served read-only to concurrent sessions never triggers a lazy
// rebuild mid-request. The serving layer calls it once per snapshot;
// calling it again is a no-op.
func (o *Organization) Warm() {
	for _, org := range o.m.Orgs {
		org.Topo()
		org.Levels()
	}
}

// TableDiscovery is one table with its probability of being discovered
// by navigation under a query topic.
type TableDiscovery struct {
	// Table is the table's name.
	Table string `json:"table"`
	// Probability is P(T | X, O): the chance a session navigating under
	// the query topic reaches at least one of the table's attributes.
	Probability float64 `json:"probability"`
}

// DiscoverTopic evaluates, for every lake table, the probability that a
// navigation session under the given query topic discovers it (Eq 5
// applied to an arbitrary query rather than an attribute's own topic):
// one reach-probability sweep over the dimension's DAG, then the leaf
// and table aggregation. Results are in lake table order; tables with
// no organized attribute in the dimension report 0.
//
// This is the repeated softmax sweep the serving cache amortizes —
// its cost is what makes caching by query topic worthwhile.
func (o *Organization) DiscoverTopic(dim int, topic vector.Vector) ([]TableDiscovery, error) {
	if dim < 0 || dim >= len(o.m.Orgs) {
		return nil, fmt.Errorf("lakenav: dimension %d out of range [0, %d)", dim, len(o.m.Orgs))
	}
	org := o.m.Orgs[dim]
	attrProbs := org.DiscoveryProbs(topic)
	out := make([]TableDiscovery, 0, len(o.lake.l.Tables))
	for _, t := range o.lake.l.Tables {
		if t.Removed {
			continue
		}
		out = append(out, TableDiscovery{Table: t.Name, Probability: org.TableProb(t, attrProbs)})
	}
	return out, nil
}

// Node describes one navigation choice presented to a user.
type Node struct {
	// Label is the display label (tags for interior states, the tag for
	// tag states, table.column for leaves).
	Label string
	// Attrs is the number of attributes reachable below this node.
	Attrs int
	// IsLeaf marks attribute nodes; descending onto a leaf ends a
	// navigation.
	IsLeaf bool
	// Table is the owning table's name for leaves, empty otherwise.
	Table string
}

// Navigator is an interactive cursor over one dimension of an
// organization — the programmatic equivalent of the user-study
// prototype.
type Navigator struct {
	o    *Organization
	dim  int
	path []core.StateID
}

// Navigator returns a cursor positioned at the root of the first
// dimension.
func (o *Organization) Navigator() *Navigator {
	n := &Navigator{o: o}
	n.Reset(0)
	return n
}

// Reset moves the cursor to the root of the given dimension.
func (n *Navigator) Reset(dim int) {
	if dim < 0 || dim >= len(n.o.m.Orgs) {
		dim = 0
	}
	n.dim = dim
	org := n.o.m.Orgs[dim]
	n.path = n.path[:0]
	n.path = append(n.path, org.Root)
}

// Dimension returns the current dimension index.
func (n *Navigator) Dimension() int { return n.dim }

// Depth returns the number of states on the current path (root = 1).
func (n *Navigator) Depth() int { return len(n.path) }

// Here describes the current state.
func (n *Navigator) Here() Node { return n.node(n.path[len(n.path)-1]) }

// Children lists the choices at the current state.
func (n *Navigator) Children() []Node {
	org := n.o.m.Orgs[n.dim]
	s := org.State(n.path[len(n.path)-1])
	out := make([]Node, len(s.Children))
	for i, c := range s.Children {
		out[i] = n.node(c)
	}
	return out
}

// Descend moves to the i-th child; it returns false when i is out of
// range.
func (n *Navigator) Descend(i int) bool {
	org := n.o.m.Orgs[n.dim]
	s := org.State(n.path[len(n.path)-1])
	if i < 0 || i >= len(s.Children) {
		return false
	}
	n.path = append(n.path, s.Children[i])
	return true
}

// Up backtracks one state; it returns false at the root.
func (n *Navigator) Up() bool {
	if len(n.path) <= 1 {
		return false
	}
	n.path = n.path[:len(n.path)-1]
	return true
}

func (n *Navigator) node(id core.StateID) Node {
	org := n.o.m.Orgs[n.dim]
	s := org.State(id)
	out := Node{
		Label:  org.Label(id),
		Attrs:  s.DomainSize(),
		IsLeaf: s.Kind == core.KindLeaf,
	}
	if out.IsLeaf {
		out.Table = n.o.lake.l.Table(n.o.lake.l.Attr(s.Attr).Table).Name
	}
	return out
}

// Suggest ranks the current children by the navigation model's
// transition probability for a free-text query, most likely first. It
// is the "which child looks most relevant" signal a UI can surface.
func (n *Navigator) Suggest(query string) []ScoredNode {
	topic, _, ok := embedding.MeanVector(n.o.lake.model, []string{query})
	if !ok {
		return nil
	}
	return n.SuggestTopic(topic)
}

// SuggestTopic is Suggest with the query already embedded, for callers
// that manage query topics themselves (the serving layer embeds once,
// quantizes, and keys its cache on the topic).
func (n *Navigator) SuggestTopic(topic vector.Vector) []ScoredNode {
	return n.suggestTopic(topic)
}

func (n *Navigator) suggestTopic(topic vector.Vector) []ScoredNode {
	org := n.o.m.Orgs[n.dim]
	cur := n.path[len(n.path)-1]
	probs := org.TransitionProbs(cur, topic)
	s := org.State(cur)
	out := make([]ScoredNode, len(s.Children))
	for i, c := range s.Children {
		out[i] = ScoredNode{Node: n.node(c), Index: i, Probability: probs[i]}
	}
	// Sort by probability descending, stable on index.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Probability > out[j-1].Probability; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ScoredNode is a child with its transition probability under a query.
type ScoredNode struct {
	Node
	// Index is the child's position for Navigator.Descend.
	Index int
	// Probability is P(child | current state, query) under Eq 1.
	Probability float64
}

// Walk simulates one navigation toward a free-text query and returns
// the labels of the visited states. A nil rng takes the most probable
// child at every step.
func (o *Organization) Walk(query string, rng *rand.Rand) []string {
	topic, _, ok := embedding.MeanVector(o.lake.model, []string{query})
	if !ok {
		return nil
	}
	best := 0
	if len(o.m.Orgs) > 1 {
		// Choose the dimension whose root topic best matches the query.
		bs := -2.0
		for i, org := range o.m.Orgs {
			if s := vector.Cosine(org.State(org.Root).Topic(), topic); s > bs {
				bs, best = s, i
			}
		}
	}
	org := o.m.Orgs[best]
	path := org.Walk(topic, rng)
	out := make([]string, len(path))
	for i, id := range path {
		out[i] = org.Label(id)
	}
	return out
}

// SearchEngine is a BM25 keyword-search engine over the lake — the
// complementary modality the paper compares navigation with.
type SearchEngine struct {
	idx  *textsearch.Index
	lake *Lake
}

// NewSearchEngine indexes the lake's tables (names, tags, column names,
// and values).
func NewSearchEngine(l *Lake) *SearchEngine {
	return &SearchEngine{idx: textsearch.IndexLake(l.l), lake: l}
}

// Search returns up to k table names ranked by BM25 relevance.
func (s *SearchEngine) Search(query string, k int) []string {
	res := s.idx.Search(query, k)
	out := make([]string, len(res))
	for i, r := range res {
		out[i] = r.Doc.Name
	}
	return out
}

// WriteTree renders each dimension as an indented outline down to the
// tag states (depth and child limits keep large organizations
// readable).
func (o *Organization) WriteTree(w io.Writer, maxDepth, maxChildren int) error {
	for i, org := range o.m.Orgs {
		fmt.Fprintf(w, "dimension %d:\n", i)
		if err := org.WriteTree(w, core.RenderOptions{MaxDepth: maxDepth, MaxChildren: maxChildren}); err != nil {
			return err
		}
	}
	return nil
}

// WriteReport renders a short per-dimension structural report.
func (o *Organization) WriteReport(w io.Writer) {
	for i, org := range o.m.Orgs {
		depth := 0
		for _, l := range org.Levels() {
			if l > depth {
				depth = l
			}
		}
		fmt.Fprintf(w, "dimension %d: %d tags, %d attributes, %d states, depth %d\n",
			i, len(o.m.TagGroups[i]), len(org.Attrs()), org.LiveStates(), depth)
	}
	fmt.Fprintf(w, "effectiveness P(T|O) = %.4f\n", o.Effectiveness())
}

// Hybrid is a unified search+navigation session (the paper's
// future-work framework): keyword hits carry jump points into the
// organization, and any organization node can be opened as a
// serendipity neighbourhood or turned back into keyword queries.
type Hybrid struct {
	s *hybrid.Session
}

// HybridHit is one search result with its navigation entry points.
type HybridHit struct {
	// Table is the hit's table name.
	Table string
	// Score is the BM25 relevance.
	Score float64
	// Jumps label the organization states a user can pivot into,
	// biggest neighbourhood first.
	Jumps []HybridJump
}

// HybridJump is one pivot target.
type HybridJump struct {
	// Label is the target state's display label.
	Label string
	// Tables is the neighbourhood size a pivot would open.
	Tables int

	dim   int
	state core.StateID
}

// NewHybrid builds a unified session over a lake and its organization.
func NewHybrid(l *Lake, org *Organization) (*Hybrid, error) {
	s, err := hybrid.NewSession(l.l, org.m, nil)
	if err != nil {
		return nil, err
	}
	return &Hybrid{s: s}, nil
}

// Search runs a keyword query; every hit carries jump points.
func (h *Hybrid) Search(query string, k int) []HybridHit {
	hits := h.s.Search(query, k)
	out := make([]HybridHit, len(hits))
	for i, hit := range hits {
		out[i] = HybridHit{Table: hit.Name, Score: hit.Score}
		for _, j := range hit.Jumps {
			out[i].Jumps = append(out[i].Jumps, HybridJump{
				Label: j.Label, Tables: j.Tables, dim: j.Dim, state: j.State,
			})
		}
	}
	return out
}

// Neighborhood opens a jump point: the distinct tables grouped under
// that organization state, capped at limit (0 = all).
func (h *Hybrid) Neighborhood(j HybridJump, limit int) ([]string, error) {
	ids, err := h.s.Neighborhood(j.dim, j.state, limit)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = h.s.Lake().Table(id).Name
	}
	return out, nil
}

// RelatedQueries turns a jump point back into keyword queries: the
// neighbourhood's dominant tags.
func (h *Hybrid) RelatedQueries(j HybridJump, n int) ([]string, error) {
	return h.s.RelatedQueries(j.dim, j.state, n)
}

// Format selects an on-disk representation for lakes and
// organizations.
type Format string

const (
	// FormatJSON is the human-readable export format. Lakes load back
	// from it; organizations do not (LoadOrganization reads FormatBin).
	FormatJSON Format = "json"
	// FormatBin is the versioned binary container format (CRC-guarded
	// sections, flat vector blocks, mmap-friendly) — the cold-start
	// format: loading skips both JSON parsing and topic re-derivation.
	FormatBin Format = "bin"
)

// ParseFormat maps a -format flag value to a Format.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatJSON, FormatBin:
		return Format(s), nil
	default:
		return "", fmt.Errorf("lakenav: unknown format %q (want json or bin)", s)
	}
}

// SaveJSON exports the organization's structure to path as indented
// JSON, for people and other tools. It is not a load format: services
// cold-start from Save(path, FormatBin). The write is atomic (temp
// file + fsync + rename): a crash mid-save leaves either the old file
// or the new one, never a torn file.
func (o *Organization) SaveJSON(path string) error {
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		return o.m.WriteJSON(w)
	})
	if err != nil {
		return fmt.Errorf("lakenav: save organization: %w", err)
	}
	return nil
}

// Save persists the organization to path in the given format. Binary
// stores the topic vectors, accumulators, and domains verbatim, so
// LoadOrganization over the same lake is a bulk copy that reproduces
// the exact navigation behaviour without re-running the construction
// search — the cold-start path for navigation services. JSON is the
// structure-only export (see SaveJSON). Writes are atomic in either
// format.
func (o *Organization) Save(path string, f Format) error {
	switch f {
	case FormatJSON:
		return o.SaveJSON(path)
	case FormatBin:
		if err := core.SaveBinMultiDim(path, o.m); err != nil {
			return fmt.Errorf("lakenav: save organization: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("lakenav: unknown format %q", f)
	}
}

// LoadOrganization reads an organization saved with Save(path,
// FormatBin) and reattaches it to the lake it was built over. A JSON
// export is rejected with an error saying so.
func LoadOrganization(l *Lake, path string) (*Organization, error) {
	l.ensureTopics()
	m, err := core.LoadMultiDim(l.l, path)
	if err != nil {
		return nil, fmt.Errorf("lakenav: load organization: %w", err)
	}
	return &Organization{m: m, lake: l}, nil
}

// Fingerprint returns a hex hash of every bit of semantic state the
// organization carries — structure, edge order, topic vector bits,
// accumulator bits, domains. Two organizations with equal fingerprints
// navigate and optimize identically; the cold-start gate compares it
// across saves and loads of one organization.
func (o *Organization) Fingerprint() string {
	return fmt.Sprintf("%016x", o.m.Fingerprint())
}
