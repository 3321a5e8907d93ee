package core

import (
	"encoding/json"
	"fmt"
	"io"

	"lakenav/internal/lake"
	"lakenav/vector"
)

// Import reconstructs a functioning organization from an Export
// snapshot and the lake it was built over. Topic vectors and domains
// are recomputed from the lake (they are derived state), so the
// snapshot stays small and the lake remains the single source of truth
// for content. The lake must have computed topics and must still
// contain every attribute and tag the snapshot references — Import is
// for cold-starting a navigation service on the same lake, not for
// migrating structures across lakes.
func Import(l *lake.Lake, ex *ExportedOrg) (*Org, error) {
	if l.Dim() == 0 {
		return nil, fmt.Errorf("core: import needs computed lake topics")
	}
	if ex.Gamma <= 0 {
		return nil, fmt.Errorf("core: import gamma %v not positive", ex.Gamma)
	}
	o := &Org{
		Lake:     l,
		Gamma:    ex.Gamma,
		Root:     -1,
		leafOf:   make(map[lake.AttrID]StateID),
		tagState: make(map[string]StateID),
		arena:    newTopicArena(l.Dim()),
	}

	// Qualified attribute names → IDs for leaf resolution. Removed
	// attributes are invisible: a snapshot referencing one is stale
	// relative to this lake and must fail, and a re-added table must
	// resolve to its live attribute slots, not its tombstones.
	attrByName := make(map[string]lake.AttrID, len(l.Attrs))
	for _, a := range l.Attrs {
		if a.Removed {
			continue
		}
		attrByName[a.QualifiedName(l)] = a.ID
	}

	// First pass: materialize states with fresh dense IDs.
	idMap := make(map[int]StateID, len(ex.States))
	for _, es := range ex.States {
		switch es.Kind {
		case "leaf":
			a, ok := attrByName[es.Attr]
			if !ok {
				return nil, fmt.Errorf("core: import references unknown attribute %q", es.Attr)
			}
			s := o.newState(KindLeaf)
			s.Attr = a
			s.setTopic(l.Attr(a).Topic)
			o.leafOf[a] = s.ID
			idMap[es.ID] = s.ID
		case "tag":
			if len(es.Tags) != 1 {
				return nil, fmt.Errorf("core: import tag state %d has %d tags", es.ID, len(es.Tags))
			}
			s := o.newState(KindTag)
			s.Tags = es.Tags
			s.run = vector.NewRunning(l.Dim())
			o.tagState[es.Tags[0]] = s.ID
			idMap[es.ID] = s.ID
		case "interior":
			s := o.newInterior()
			idMap[es.ID] = s.ID
		default:
			return nil, fmt.Errorf("core: import unknown state kind %q", es.Kind)
		}
	}

	// Second pass: link children bottom-up so domain propagation sees
	// complete child domains. Order: leaves have no children; tag
	// states link leaves; interiors link in reverse topological order.
	// Simplest correct order: link tag states first, then interiors in
	// an order where every child is already fully linked — obtained by
	// processing states by their maximum distance to a leaf.
	depth := make(map[int]int, len(ex.States))
	byID := make(map[int]ExportedState, len(ex.States))
	for _, es := range ex.States {
		byID[es.ID] = es
	}
	var depthOf func(id int, seen map[int]bool) (int, error)
	depthOf = func(id int, seen map[int]bool) (int, error) {
		if d, ok := depth[id]; ok {
			return d, nil
		}
		if seen[id] {
			return 0, fmt.Errorf("core: import cycle through state %d", id)
		}
		seen[id] = true
		defer delete(seen, id)
		es, ok := byID[id]
		if !ok {
			return 0, fmt.Errorf("core: import references unknown state %d", id)
		}
		max := 0
		for _, c := range es.Children {
			d, err := depthOf(c, seen)
			if err != nil {
				return 0, err
			}
			if d+1 > max {
				max = d + 1
			}
		}
		depth[id] = max
		return max, nil
	}
	order := make([]ExportedState, 0, len(ex.States))
	for _, es := range ex.States {
		if _, err := depthOf(es.ID, map[int]bool{}); err != nil {
			return nil, err
		}
		order = append(order, es)
	}
	// Sort by depth ascending (children before parents).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && depth[order[j].ID] < depth[order[j-1].ID]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, es := range order {
		parent := idMap[es.ID]
		for _, c := range es.Children {
			child, ok := idMap[c]
			if !ok {
				return nil, fmt.Errorf("core: import state %d references unknown child %d", es.ID, c)
			}
			o.linkChild(parent, child)
		}
	}

	// Resolve the root and the organized attribute set.
	root, ok := idMap[ex.Root]
	if !ok {
		return nil, fmt.Errorf("core: import root %d not among states", ex.Root)
	}
	o.Root = root
	o.attrs = o.States[root].Domain()
	o.buildAttrIndex()

	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("core: import produced invalid organization: %w", err)
	}
	return o, nil
}

// ReadOrg deserializes an organization encoded as JSON from Export and
// reattaches it to the lake.
//
//lakelint:ignore deadexport -- JSON organization decoder kept behind FuzzReadOrg
func ReadOrg(l *lake.Lake, r io.Reader) (*Org, error) {
	var ex ExportedOrg
	if err := json.NewDecoder(r).Decode(&ex); err != nil {
		return nil, fmt.Errorf("core: import decode: %w", err)
	}
	return Import(l, &ex)
}
