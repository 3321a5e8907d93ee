// Package lake models a data lake: tables, attributes, values, and the
// table-level tag metadata the organization algorithm consumes
// (Nargesian et al., SIGMOD 2020, Sec 2.1 and 3.2).
//
// A Lake owns its tables and attributes and maintains the tag → attribute
// mapping data(t) of Definition 5: attributes inherit every tag of their
// table. Topic vectors (Sec 3.1) are computed once per attribute from an
// embedding model and kept as running (sum, count) accumulators so that
// states unioning many attributes can derive their own topic vectors by
// merging rather than re-embedding.
package lake

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"lakenav/internal/embedding"
	"lakenav/vector"
)

// AttrID identifies an attribute within its Lake. IDs are dense indices
// into Lake.Attrs.
type AttrID int

// TableID identifies a table within its Lake. IDs are dense indices into
// Lake.Tables.
type TableID int

// Attribute is a single column of a table together with its embedding-
// derived topic representation.
type Attribute struct {
	ID    AttrID
	Table TableID
	// Name is the column header.
	Name string
	// Values is the attribute's domain (paper: dom(A)); duplicates allowed.
	Values []string
	// Text reports whether the attribute was classified as textual.
	// Organizations are built over text attributes only (Sec 3.1).
	Text bool

	// Topic is the attribute's topic vector μ_A: the sample mean of the
	// embeddings of its embedded value tokens. Zero when no token was
	// embedded.
	Topic vector.Vector
	// EmbSum and EmbCount are the un-normalized accumulator behind Topic,
	// kept so state topic vectors can be derived by merging attributes.
	EmbSum   vector.Vector
	EmbCount int
	// Coverage records what fraction of the domain had embeddings.
	Coverage embedding.CoverageStats

	// Removed marks a tombstone: the attribute's table was removed from
	// the lake, but the slot stays so dense IDs remain stable. Consumers
	// iterating Attrs must skip removed entries.
	Removed bool
}

// QualifiedName returns "table.attribute" for display, mirroring the
// paper's d6.a2 notation.
func (a *Attribute) QualifiedName(l *Lake) string {
	return fmt.Sprintf("%s.%s", l.Tables[a.Table].Name, a.Name)
}

// Table is a named set of attributes with table-level tags.
type Table struct {
	ID   TableID
	Name string
	// Tags is the table's distilled metadata (Sec 3.2); attributes
	// inherit all of them.
	Tags  []string
	Attrs []AttrID

	// Removed marks a tombstone (see Attribute.Removed); the table keeps
	// its dense slot but is no longer part of the lake's content.
	Removed bool
}

// Lake is an in-memory data lake.
type Lake struct {
	Tables []*Table
	Attrs  []*Attribute

	// tagAttrs is data(t): tag → attributes carrying it.
	tagAttrs map[string][]AttrID
	// attrTags is the reverse mapping: attribute → tags it carries
	// (inherited from its table plus per-attribute associations).
	attrTags map[AttrID][]string
	// tags in first-seen order.
	tags []string

	// dim is the embedding dimension once topics are computed; 0 before.
	dim int
}

// New returns an empty lake.
func New() *Lake {
	return &Lake{
		tagAttrs: make(map[string][]AttrID),
		attrTags: make(map[AttrID][]string),
	}
}

// AttrSpec describes one attribute when adding a table.
type AttrSpec struct {
	Name   string
	Values []string
}

// AddTable appends a table with the given tags and attributes and returns
// it. Duplicate tags on a single table are collapsed.
func (l *Lake) AddTable(name string, tags []string, attrs ...AttrSpec) *Table {
	t := &Table{ID: TableID(len(l.Tables)), Name: name}
	seen := make(map[string]bool, len(tags))
	for _, tag := range tags {
		if tag == "" || seen[tag] {
			continue
		}
		seen[tag] = true
		t.Tags = append(t.Tags, tag)
		if _, ok := l.tagAttrs[tag]; !ok {
			l.tags = append(l.tags, tag)
			l.tagAttrs[tag] = nil
		}
	}
	l.Tables = append(l.Tables, t)
	for _, spec := range attrs {
		a := &Attribute{
			ID:     AttrID(len(l.Attrs)),
			Table:  t.ID,
			Name:   spec.Name,
			Values: spec.Values,
			Text:   IsTextDomain(spec.Values),
		}
		l.Attrs = append(l.Attrs, a)
		t.Attrs = append(t.Attrs, a.ID)
		for _, tag := range t.Tags {
			l.tagAttrs[tag] = append(l.tagAttrs[tag], a.ID)
			l.attrTags[a.ID] = append(l.attrTags[a.ID], tag)
		}
	}
	return t
}

// AssociateTag adds a per-attribute tag association (beyond the tags the
// attribute inherits from its table). The TagCloud enrichment experiment
// uses this to give individual attributes a second tag. It is a no-op
// when the association already exists.
func (l *Lake) AssociateTag(id AttrID, tag string) {
	for _, existing := range l.attrTags[id] {
		if existing == tag {
			return
		}
	}
	if _, ok := l.tagAttrs[tag]; !ok {
		l.tags = append(l.tags, tag)
	}
	l.tagAttrs[tag] = append(l.tagAttrs[tag], id)
	l.attrTags[id] = append(l.attrTags[id], tag)
}

// AttrTags returns the tags associated with attribute id in association
// order. The returned slice must not be modified.
func (l *Lake) AttrTags(id AttrID) []string { return l.attrTags[id] }

// Attr returns the attribute with the given ID.
func (l *Lake) Attr(id AttrID) *Attribute { return l.Attrs[id] }

// Table returns the table with the given ID.
func (l *Lake) Table(id TableID) *Table { return l.Tables[id] }

// Tags returns all tags in first-seen order. The returned slice must not
// be modified.
func (l *Lake) Tags() []string { return l.tags }

// TagAttrs returns data(t): the attributes associated with tag, in
// insertion order. The returned slice must not be modified.
func (l *Lake) TagAttrs(tag string) []AttrID { return l.tagAttrs[tag] }

// TextTagAttrs returns the text attributes associated with tag.
func (l *Lake) TextTagAttrs(tag string) []AttrID {
	var out []AttrID
	for _, id := range l.tagAttrs[tag] {
		if l.Attrs[id].Text {
			out = append(out, id)
		}
	}
	return out
}

// TextAttrs returns the IDs of all live text attributes.
func (l *Lake) TextAttrs() []AttrID {
	var out []AttrID
	for _, a := range l.Attrs {
		if a.Text && !a.Removed {
			out = append(out, a.ID)
		}
	}
	return out
}

// Dim returns the embedding dimension of computed topic vectors, or 0 if
// ComputeTopics has not run.
func (l *Lake) Dim() int { return l.dim }

// AddTag associates tag with every attribute of table id (metadata
// enrichment; used by the paper's "enriched" experiments). It is a no-op
// if the table already carries the tag.
func (l *Lake) AddTag(id TableID, tag string) {
	t := l.Tables[id]
	for _, existing := range t.Tags {
		if existing == tag {
			return
		}
	}
	t.Tags = append(t.Tags, tag)
	if _, ok := l.tagAttrs[tag]; !ok {
		l.tags = append(l.tags, tag)
		l.tagAttrs[tag] = nil
	}
	for _, aid := range t.Attrs {
		l.AssociateTag(aid, tag)
	}
}

// IsTextDomain classifies a domain as textual when a majority of its
// non-empty values do not parse as numbers. Organizations are built over
// text attributes only: the paper found numeric set overlap semantically
// misleading (Sec 3.1).
func IsTextDomain(values []string) bool {
	nonEmpty, numeric := 0, 0
	for _, v := range values {
		v = strings.TrimSpace(v)
		if v == "" {
			continue
		}
		nonEmpty++
		if _, err := strconv.ParseFloat(strings.ReplaceAll(v, ",", ""), 64); err == nil {
			numeric++
		}
	}
	if nonEmpty == 0 {
		return false
	}
	return float64(numeric)/float64(nonEmpty) < 0.5
}

// ComputeTopics computes the topic vector of every live attribute using
// model and records the lake's embedding dimension. Attributes whose
// domains have no embedded token keep a zero topic vector; they remain
// in the lake but carry no navigation signal. Each distinct word is
// looked up once (see computeTopics).
func (l *Lake) ComputeTopics(model embedding.Model) {
	ids := make([]AttrID, 0, len(l.Attrs))
	for _, a := range l.Attrs {
		if !a.Removed {
			ids = append(ids, a.ID)
		}
	}
	l.computeTopics(model, ids)
}

// TagTopic returns the topic vector of a tag state: the mean embedding
// over all values of all text attributes carrying the tag (Definition 5).
// ok is false when the tag has no embedded content.
func (l *Lake) TagTopic(tag string) (vector.Vector, bool) {
	if l.dim == 0 {
		panic("lake: TagTopic before ComputeTopics")
	}
	run := vector.NewRunning(l.dim)
	for _, id := range l.tagAttrs[tag] {
		a := l.Attrs[id]
		if !a.Text || a.EmbCount == 0 {
			continue
		}
		run.AddWeighted(a.EmbSum, a.EmbCount)
	}
	return meanOrZero(run)
}

func meanOrZero(run *vector.Running) (vector.Vector, bool) {
	m, ok := run.Mean()
	return m, ok
}

// Validate checks internal consistency: dense IDs, table back-references,
// and tag index completeness. It returns the first inconsistency found.
func (l *Lake) Validate() error {
	for i, t := range l.Tables {
		if int(t.ID) != i {
			return fmt.Errorf("lake: table %q has ID %d at index %d", t.Name, t.ID, i)
		}
		for _, aid := range t.Attrs {
			if int(aid) < 0 || int(aid) >= len(l.Attrs) {
				return fmt.Errorf("lake: table %q references attribute %d out of range", t.Name, aid)
			}
			if l.Attrs[aid].Table != t.ID {
				return fmt.Errorf("lake: attribute %d back-reference mismatch", aid)
			}
		}
	}
	for i, a := range l.Attrs {
		if int(a.ID) != i {
			return fmt.Errorf("lake: attribute %q has ID %d at index %d", a.Name, a.ID, i)
		}
	}
	for i, a := range l.Attrs {
		if a.Removed && !l.Tables[a.Table].Removed {
			return fmt.Errorf("lake: attribute %d removed but its table %q is live", i, l.Tables[a.Table].Name)
		}
		if !a.Removed && l.Tables[a.Table].Removed {
			return fmt.Errorf("lake: attribute %d live but its table %q is removed", i, l.Tables[a.Table].Name)
		}
	}
	for tag, ids := range l.tagAttrs {
		for _, id := range ids {
			if int(id) < 0 || int(id) >= len(l.Attrs) {
				return fmt.Errorf("lake: tag %q references attribute %d out of range", tag, id)
			}
			if l.Attrs[id].Removed {
				return fmt.Errorf("lake: tag %q references removed attribute %d", tag, id)
			}
		}
	}
	return nil
}

// SortedTags returns the tags sorted by descending |data(t)| and then
// name, the order used when picking representative labels.
func (l *Lake) SortedTags() []string {
	out := append([]string(nil), l.tags...)
	sort.Slice(out, func(i, j int) bool {
		ni, nj := len(l.tagAttrs[out[i]]), len(l.tagAttrs[out[j]])
		if ni != nj {
			return ni > nj
		}
		return out[i] < out[j]
	})
	return out
}
