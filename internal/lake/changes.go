package lake

import (
	"fmt"

	"lakenav/internal/embedding"
)

// This file is the lake's mutation surface for incremental ingest:
// batched add/remove of tables (journal replay applies one Batch
// through ApplyChanges), incremental topic computation for the
// attributes a batch added, and a snapshot Clone so a serving
// generation can be frozen while ingest keeps mutating the working
// lake.
//
// Removal is by tombstone: IDs are dense indices into Lake.Tables and
// Lake.Attrs and are referenced all over (organizations, per-table
// stats, exports), so a removed table keeps its slot and is flagged
// Removed instead of being spliced out. Every consumer that iterates
// tables or attributes skips tombstones; the tag indexes are scrubbed
// eagerly so data(t) only ever contains live attributes.

// TableChange describes one table addition of a change batch, the
// in-memory form of a journal record's "add" entry.
type TableChange struct {
	Name  string
	Tags  []string
	Attrs []AttrSpec
}

// ChangeSummary reports what one ApplyChanges call did, in terms the
// organization layer needs for incremental apply: which attributes
// appeared, which disappeared, which tags are new, and which tags lost
// their last attribute.
type ChangeSummary struct {
	Added        []TableID
	AddedAttrs   []AttrID
	Removed      []TableID
	RemovedAttrs []AttrID
	// NewTags are tags first seen in this batch, in first-seen order.
	NewTags []string
	// EmptiedTags are tags whose data(t) became empty, in first-seen
	// (l.tags) order. They stay registered — a later batch may repopulate
	// them — but carry no attributes until then.
	EmptiedTags []string
}

// TableByName returns the live (non-removed) table with the given
// name.
func (l *Lake) TableByName(name string) (*Table, bool) {
	for _, t := range l.Tables {
		if !t.Removed && t.Name == name {
			return t, true
		}
	}
	return nil, false
}

// ApplyChanges applies one change batch: removals first, then
// additions (so a batch can replace a table by removing and re-adding
// its name). The batch is validated before anything mutates — an
// unknown removal name or a duplicate addition name fails the whole
// batch, leaving the lake untouched. Added attributes have no topic
// vectors yet; call ComputeTopicsFor with the summary's AddedAttrs.
func (l *Lake) ApplyChanges(add []TableChange, remove []string) (*ChangeSummary, error) {
	// Validate up front: all-or-nothing.
	removing := make(map[string]bool, len(remove))
	for _, name := range remove {
		if removing[name] {
			return nil, fmt.Errorf("lake: duplicate removal of table %q in one batch", name)
		}
		if _, ok := l.TableByName(name); !ok {
			return nil, fmt.Errorf("lake: cannot remove unknown table %q", name)
		}
		removing[name] = true
	}
	adding := make(map[string]bool, len(add))
	for _, tc := range add {
		if tc.Name == "" {
			return nil, fmt.Errorf("lake: cannot add a table with an empty name")
		}
		if adding[tc.Name] {
			return nil, fmt.Errorf("lake: duplicate addition of table %q in one batch", tc.Name)
		}
		if _, ok := l.TableByName(tc.Name); ok && !removing[tc.Name] {
			return nil, fmt.Errorf("lake: table %q already exists", tc.Name)
		}
		adding[tc.Name] = true
	}

	sum := &ChangeSummary{}

	// Removals.
	affected := make(map[string]bool)
	for _, name := range remove {
		t, _ := l.TableByName(name)
		t.Removed = true
		sum.Removed = append(sum.Removed, t.ID)
		for _, aid := range t.Attrs {
			l.Attrs[aid].Removed = true
			sum.RemovedAttrs = append(sum.RemovedAttrs, aid)
			for _, tag := range l.attrTags[aid] {
				affected[tag] = true
			}
			delete(l.attrTags, aid)
		}
	}
	// Scrub data(t) for every affected tag, allocating fresh slices so
	// clones sharing the old backing arrays stay intact.
	for _, tag := range l.tags {
		if !affected[tag] {
			continue
		}
		var live []AttrID
		for _, aid := range l.tagAttrs[tag] {
			if !l.Attrs[aid].Removed {
				live = append(live, aid)
			}
		}
		l.tagAttrs[tag] = live
		if len(live) == 0 {
			sum.EmptiedTags = append(sum.EmptiedTags, tag)
		}
	}

	// Additions.
	tagsBefore := len(l.tags)
	for _, tc := range add {
		t := l.AddTable(tc.Name, tc.Tags, tc.Attrs...)
		sum.Added = append(sum.Added, t.ID)
		sum.AddedAttrs = append(sum.AddedAttrs, t.Attrs...)
	}
	sum.NewTags = append(sum.NewTags, l.tags[tagsBefore:]...)
	return sum, nil
}

// ComputeTopicsFor computes topic vectors for exactly the given
// attributes — the incremental counterpart of ComputeTopics, used
// after ApplyChanges so a batch costs embedding work proportional to
// what it added, not to the whole lake. It runs the same kernel, so an
// attribute gets the same topic either way.
func (l *Lake) ComputeTopicsFor(model embedding.Model, ids []AttrID) error {
	if l.dim != 0 && l.dim != model.Dim() {
		return fmt.Errorf("lake: embedding dimension %d does not match lake dimension %d", model.Dim(), l.dim)
	}
	if embedding.Identity(model) != l.topicModel {
		l.topicModel = ""
	}
	l.computeTopics(model, ids)
	return nil
}

// Clone returns a deep-enough copy of the lake for read-only use: a
// frozen serving generation. Table and Attribute structs, the index
// maps, and their ID slices are copied; immutable payloads (value
// domains, topic vectors, accumulators) are shared. Mutating the
// original through ApplyChanges/ComputeTopicsFor never changes what a
// clone observes.
func (l *Lake) Clone() *Lake {
	c := &Lake{
		Tables:     make([]*Table, len(l.Tables)),
		Attrs:      make([]*Attribute, len(l.Attrs)),
		tagAttrs:   make(map[string][]AttrID, len(l.tagAttrs)),
		attrTags:   make(map[AttrID][]string, len(l.attrTags)),
		tags:       append([]string(nil), l.tags...),
		dim:        l.dim,
		topicModel: l.topicModel,
	}
	for i, t := range l.Tables {
		tc := *t
		tc.Tags = append([]string(nil), t.Tags...)
		tc.Attrs = append([]AttrID(nil), t.Attrs...)
		c.Tables[i] = &tc
	}
	for i, a := range l.Attrs {
		ac := *a
		c.Attrs[i] = &ac
	}
	for tag, ids := range l.tagAttrs {
		c.tagAttrs[tag] = append([]AttrID(nil), ids...)
	}
	for id, tags := range l.attrTags {
		c.attrTags[id] = append([]string(nil), tags...)
	}
	return c
}
