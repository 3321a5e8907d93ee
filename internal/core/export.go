package core

import (
	"encoding/json"
	"fmt"
	"io"

	"lakenav/internal/lake"
)

// ExportedState is the serialized form of one live state.
type ExportedState struct {
	ID    int    `json:"id"`
	Kind  string `json:"kind"`
	Label string `json:"label"`
	// Attr is the qualified attribute name for leaves.
	Attr string `json:"attr,omitempty"`
	// Tags is M_s for tag states.
	Tags       []string `json:"tags,omitempty"`
	Children   []int    `json:"children,omitempty"`
	DomainSize int      `json:"domainSize"`
}

// ExportedOrg is a JSON-serializable snapshot of an organization's
// structure (topic vectors are omitted: they derive from the lake and
// the embedding model).
type ExportedOrg struct {
	Gamma  float64         `json:"gamma"`
	Root   int             `json:"root"`
	States []ExportedState `json:"states"`
}

// Export snapshots the organization's live structure.
func (o *Org) Export() *ExportedOrg {
	out := &ExportedOrg{Gamma: o.Gamma, Root: int(o.Root)}
	for _, s := range o.States {
		if s.deleted {
			continue
		}
		es := ExportedState{
			ID:         int(s.ID),
			Kind:       s.Kind.String(),
			Label:      o.Label(s.ID),
			DomainSize: s.DomainSize(),
		}
		if s.Kind == KindLeaf {
			es.Attr = o.Lake.Attr(s.Attr).QualifiedName(o.Lake)
		}
		if s.Kind == KindTag {
			es.Tags = s.Tags
		}
		for _, c := range s.Children {
			es.Children = append(es.Children, int(c))
		}
		out.States = append(out.States, es)
	}
	return out
}

// Metrics summarizes an organization's shape for reports and ablations.
type Metrics struct {
	// States by kind (live only).
	Leaves, TagStates, InteriorStates int
	// Edges counts live parent→child links.
	Edges int
	// Depth is the maximum shortest-path level.
	Depth int
	// MaxBranching and MeanBranching describe non-leaf out-degrees.
	MaxBranching  int
	MeanBranching float64
	// MultiParentLeaves counts leaves reachable through 2+ tag states —
	// the DAG-ness ADD_PARENT introduces.
	MultiParentLeaves int
}

// ComputeMetrics derives Metrics from o.
func ComputeMetrics(o *Org) Metrics {
	var m Metrics
	levels := o.Levels()
	branchers := 0
	for _, s := range o.States {
		if s.deleted || levels[s.ID] < 0 {
			continue
		}
		if levels[s.ID] > m.Depth {
			m.Depth = levels[s.ID]
		}
		switch s.Kind {
		case KindLeaf:
			m.Leaves++
			if len(s.Parents) >= 2 {
				m.MultiParentLeaves++
			}
		case KindTag:
			m.TagStates++
		default:
			m.InteriorStates++
		}
		if len(s.Children) > 0 {
			m.Edges += len(s.Children)
			branchers++
			if len(s.Children) > m.MaxBranching {
				m.MaxBranching = len(s.Children)
			}
			m.MeanBranching += float64(len(s.Children))
		}
	}
	if branchers > 0 {
		m.MeanBranching /= float64(branchers)
	}
	return m
}

// String renders the metrics on one line.
func (m Metrics) String() string {
	return fmt.Sprintf("leaves=%d tags=%d interior=%d edges=%d depth=%d branching(mean=%.1f max=%d) multiparent-leaves=%d",
		m.Leaves, m.TagStates, m.InteriorStates, m.Edges, m.Depth, m.MeanBranching, m.MaxBranching, m.MultiParentLeaves)
}

// ExportedMultiDim serializes a multi-dimensional organization.
type ExportedMultiDim struct {
	TagGroups [][]string     `json:"tagGroups"`
	Orgs      []*ExportedOrg `json:"orgs"`
}

// Export snapshots every dimension.
func (m *MultiDim) Export() *ExportedMultiDim {
	out := &ExportedMultiDim{TagGroups: m.TagGroups}
	for _, o := range m.Orgs {
		out.Orgs = append(out.Orgs, o.Export())
	}
	return out
}

// WriteJSON serializes the multi-dimensional organization to w.
func (m *MultiDim) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(m.Export()); err != nil {
		return fmt.Errorf("core: export multidim: %w", err)
	}
	return nil
}

// ImportMultiDim reconstructs a multi-dimensional organization over the
// lake from a snapshot.
func ImportMultiDim(l *lake.Lake, ex *ExportedMultiDim) (*MultiDim, error) {
	if len(ex.Orgs) == 0 {
		return nil, fmt.Errorf("core: import multidim with no dimensions")
	}
	m := &MultiDim{Lake: l, TagGroups: ex.TagGroups}
	for i, eo := range ex.Orgs {
		o, err := Import(l, eo)
		if err != nil {
			return nil, fmt.Errorf("core: dimension %d: %w", i, err)
		}
		m.Orgs = append(m.Orgs, o)
	}
	return m, nil
}
