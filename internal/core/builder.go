package core

import (
	"fmt"
	"math/rand"
	"sort"

	"lakenav/internal/cluster"
	"lakenav/internal/lake"
	"lakenav/vector"
)

// BuildConfig controls organization construction.
type BuildConfig struct {
	// Gamma is the navigation-model γ (Eq 1). Zero selects DefaultGamma.
	Gamma float64
	// Tags restricts the organization to a tag subset (one dimension of
	// a multi-dimensional organization). Nil organizes every lake tag.
	Tags []string
	// Linkage selects the agglomerative linkage for NewClustered.
	Linkage cluster.Linkage
}

// buildBase creates the fixed bottom two levels shared by every
// organization (Sec 3.2): one leaf per organized attribute and one tag
// state per organized tag, with tag states linked to the leaves of
// data(t). Tags without embeddable text attributes are skipped. It
// returns the org (rootless) and the tag states in deterministic order.
func buildBase(l *lake.Lake, cfg BuildConfig) (*Org, []StateID, error) {
	if l.Dim() == 0 {
		return nil, nil, fmt.Errorf("core: lake topics not computed (call Lake.ComputeTopics first)")
	}
	gamma := cfg.Gamma
	if gamma == 0 {
		gamma = DefaultGamma
	}
	if gamma <= 0 {
		return nil, nil, fmt.Errorf("core: gamma must be positive, got %v", gamma)
	}
	tags := cfg.Tags
	if tags == nil {
		tags = l.Tags()
	}

	o := &Org{
		Lake:     l,
		Gamma:    gamma,
		Root:     -1,
		leafOf:   make(map[lake.AttrID]StateID),
		tagState: make(map[string]StateID),
		arena:    newTopicArena(l.Dim()),
	}

	// Collect organized attributes: text, embedded, carrying at least
	// one of the organization's tags.
	attrSet := make(map[lake.AttrID]bool)
	usable := make([]string, 0, len(tags))
	for _, tag := range tags {
		ids := l.TextTagAttrs(tag)
		any := false
		for _, id := range ids {
			if l.Attr(id).EmbCount > 0 {
				attrSet[id] = true
				any = true
			}
		}
		if any {
			usable = append(usable, tag)
		}
	}
	if len(usable) == 0 {
		return nil, nil, fmt.Errorf("core: no organizable tags among %d given", len(tags))
	}
	o.attrs = make([]lake.AttrID, 0, len(attrSet))
	for a := range attrSet {
		o.attrs = append(o.attrs, a)
	}
	sort.Slice(o.attrs, func(i, j int) bool { return o.attrs[i] < o.attrs[j] })
	o.buildAttrIndex()

	// Leaves.
	for _, a := range o.attrs {
		s := o.newState(KindLeaf)
		s.Attr = a
		s.setTopic(l.Attr(a).Topic)
		o.leafOf[a] = s.ID
	}

	// Tag states.
	tagStates := make([]StateID, 0, len(usable))
	for _, tag := range usable {
		s := o.newState(KindTag)
		s.Tags = []string{tag}
		s.run = vector.NewRunning(l.Dim())
		o.tagState[tag] = s.ID
		for _, a := range l.TextTagAttrs(tag) {
			if !attrSet[a] {
				continue
			}
			o.linkChild(s.ID, o.leafOf[a])
		}
		tagStates = append(tagStates, s.ID)
	}
	return o, tagStates, nil
}

// newInterior creates an interior state ready for linking.
func (o *Org) newInterior() *State {
	s := o.newState(KindInterior)
	s.run = vector.NewRunning(o.Lake.Dim())
	return s
}

// NewFlat builds the flat baseline organization (Sec 3.2): a single root
// over all tag states. This is the navigation structure open data
// portals effectively expose (retrieval by tag).
func NewFlat(l *lake.Lake, cfg BuildConfig) (*Org, error) {
	o, tagStates, err := buildBase(l, cfg)
	if err != nil {
		return nil, err
	}
	root := o.newInterior()
	for _, ts := range tagStates {
		o.linkChild(root.ID, ts)
		root.Tags = append(root.Tags, o.States[ts].Tags...)
	}
	o.Root = root.ID
	return o, nil
}

// NewGrouped builds a three-level organization: root → one interior
// state per tag group → tag states → leaves. Callers supply the
// grouping (e.g. a known domain taxonomy); tags absent from every group
// are skipped, and unknown tags in groups are ignored. It serves as the
// "known ideal" organization in tests and as a facet-style builder in
// the public API.
func NewGrouped(l *lake.Lake, cfg BuildConfig, groups [][]string) (*Org, error) {
	flatTags := make([]string, 0)
	for _, g := range groups {
		flatTags = append(flatTags, g...)
	}
	sub := cfg
	sub.Tags = flatTags
	o, _, err := buildBase(l, sub)
	if err != nil {
		return nil, err
	}
	root := o.newInterior()
	for _, g := range groups {
		var members []StateID
		for _, tag := range g {
			if ts, ok := o.tagState[tag]; ok {
				members = append(members, ts)
			}
		}
		if len(members) == 0 {
			continue
		}
		node := o.newInterior()
		for _, ts := range members {
			o.linkChild(node.ID, ts)
			node.Tags = append(node.Tags, o.States[ts].Tags...)
		}
		o.linkChild(root.ID, node.ID)
		root.Tags = append(root.Tags, node.Tags...)
	}
	o.Root = root.ID
	if len(o.States[root.ID].Children) == 0 {
		return nil, fmt.Errorf("core: NewGrouped produced an empty organization")
	}
	return o, nil
}

// NewRandomHierarchy builds a binary hierarchy over tag states with
// random pairing. It serves as an ablation baseline for the initial-
// organization choice (clustered vs arbitrary) and as a deliberately
// bad starting point in optimizer tests.
func NewRandomHierarchy(l *lake.Lake, cfg BuildConfig, rng *rand.Rand) (*Org, error) {
	o, tagStates, err := buildBase(l, cfg)
	if err != nil {
		return nil, err
	}
	level := append([]StateID(nil), tagStates...)
	rng.Shuffle(len(level), func(i, j int) { level[i], level[j] = level[j], level[i] })
	for len(level) > 1 {
		var next []StateID
		for i := 0; i+1 < len(level); i += 2 {
			p := o.newInterior()
			o.linkChild(p.ID, level[i])
			o.linkChild(p.ID, level[i+1])
			p.Tags = append(append([]string(nil), o.States[level[i]].Tags...),
				o.States[level[i+1]].Tags...)
			next = append(next, p.ID)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	top := level[0]
	if o.States[top].Kind != KindInterior {
		root := o.newInterior()
		o.linkChild(root.ID, top)
		root.Tags = append(root.Tags, o.States[top].Tags...)
		top = root.ID
	}
	o.Root = top
	return o, nil
}

// NewClustered builds the paper's initial organization (Sec 3.3): an
// agglomerative hierarchical clustering over tag-state topic vectors,
// yielding a branching-factor-2 DAG above the tag states.
func NewClustered(l *lake.Lake, cfg BuildConfig) (*Org, error) {
	o, tagStates, err := buildBase(l, cfg)
	if err != nil {
		return nil, err
	}
	if len(tagStates) == 1 {
		// A single tag degenerates to the flat organization.
		root := o.newInterior()
		o.linkChild(root.ID, tagStates[0])
		root.Tags = append(root.Tags, o.States[tagStates[0]].Tags...)
		o.Root = root.ID
		return o, nil
	}

	vecs := make([]vector.Vector, len(tagStates))
	for i, ts := range tagStates {
		vecs[i] = o.States[ts].Topic()
	}
	dendro := cluster.AgglomerativeVectors(vecs, cfg.Linkage)

	// Map dendrogram nodes to states: leaves are the tag states, merges
	// become interior states (children exist before their parent by
	// construction).
	nodeState := make([]StateID, dendro.N+len(dendro.Merges))
	for i, ts := range tagStates {
		nodeState[i] = ts
	}
	for mi, m := range dendro.Merges {
		s := o.newInterior()
		nodeState[dendro.N+mi] = s.ID
		o.linkChild(s.ID, nodeState[m.A])
		o.linkChild(s.ID, nodeState[m.B])
		s.Tags = append(append([]string(nil), o.States[nodeState[m.A]].Tags...),
			o.States[nodeState[m.B]].Tags...)
	}
	o.Root = nodeState[dendro.Root()]
	return o, nil
}
