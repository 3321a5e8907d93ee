// Package hybrid unifies keyword search and navigation — the paper's
// closing future-work item: "to integrate keyword search and navigation
// as two interchangeable modalities in a unified framework" (Sec 6).
//
// The model: a keyword query retrieves tables (BM25), and every hit
// carries *jump points* — the organization states whose domains contain
// the hit's attributes. A user can pivot from any search hit into the
// navigation structure at the right place and browse the hit's topical
// neighbourhood, recovering exactly the serendipity the user study
// showed search lacks; conversely, any navigation state can be turned
// into a keyword filter over its neighbourhood.
package hybrid

import (
	"fmt"
	"sort"

	"lakenav/internal/core"
	"lakenav/internal/embedding"
	"lakenav/internal/lake"
	"lakenav/internal/textsearch"
)

// JumpPoint locates one entry into the navigation structure.
type JumpPoint struct {
	// Dim is the organization dimension.
	Dim int
	// State is the tag state containing the hit's attribute(s).
	State core.StateID
	// Label is the state's display label.
	Label string
	// Tables is the number of distinct tables reachable under the state
	// (the size of the neighbourhood a pivot would open).
	Tables int
}

// Hit is one search result with its navigation entry points.
type Hit struct {
	Table lake.TableID
	Name  string
	Score float64
	Jumps []JumpPoint
}

// Session is a unified search+navigation session over one lake.
type Session struct {
	lake  *lake.Lake
	orgs  *core.MultiDim
	index *textsearch.Index
	store *embedding.Store
	// tagTables[dim][state] caches distinct-table counts.
	tagTables []map[core.StateID]int
}

// Lake returns the session's lake.
func (s *Session) Lake() *lake.Lake { return s.lake }

// NewSession builds a session. store may be nil (no query expansion).
func NewSession(l *lake.Lake, orgs *core.MultiDim, store *embedding.Store) (*Session, error) {
	if l == nil || orgs == nil || len(orgs.Orgs) == 0 {
		return nil, fmt.Errorf("hybrid: need a lake and a non-empty organization")
	}
	s := &Session{
		lake:      l,
		orgs:      orgs,
		index:     textsearch.IndexLake(l),
		store:     store,
		tagTables: make([]map[core.StateID]int, len(orgs.Orgs)),
	}
	for d, org := range orgs.Orgs {
		s.tagTables[d] = make(map[core.StateID]int)
		for _, ts := range org.TagStates() {
			tables := map[lake.TableID]bool{}
			for _, a := range org.State(ts).Domain() {
				tables[l.Attr(a).Table] = true
			}
			s.tagTables[d][ts] = len(tables)
		}
	}
	return s, nil
}

// Search runs a keyword query and decorates each hit with its jump
// points, ordered by neighbourhood size descending.
func (s *Session) Search(query string, k int) []Hit {
	var results []textsearch.Result
	if s.store != nil {
		results = s.index.SearchExpanded(query, k, s.store, 5, 0.6)
	} else {
		results = s.index.Search(query, k)
	}
	hits := make([]Hit, 0, len(results))
	for _, r := range results {
		h := Hit{Table: lake.TableID(r.Doc.ID), Name: r.Doc.Name, Score: r.Score}
		h.Jumps = s.jumpPoints(h.Table)
		hits = append(hits, h)
	}
	return hits
}

// jumpPoints finds, per dimension, the tag states containing any of the
// table's attributes.
func (s *Session) jumpPoints(table lake.TableID) []JumpPoint {
	var out []JumpPoint
	attrs := s.lake.Table(table).Attrs
	for d, org := range s.orgs.Orgs {
		seen := map[core.StateID]bool{}
		for _, a := range attrs {
			leaf := org.Leaf(a)
			if leaf < 0 {
				continue
			}
			for _, p := range org.State(leaf).Parents {
				if seen[p] {
					continue
				}
				seen[p] = true
				out = append(out, JumpPoint{
					Dim:    d,
					State:  p,
					Label:  org.Label(p),
					Tables: s.tagTables[d][p],
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tables != out[j].Tables {
			return out[i].Tables > out[j].Tables
		}
		if out[i].Dim != out[j].Dim {
			return out[i].Dim < out[j].Dim
		}
		return out[i].State < out[j].State
	})
	return out
}

// Neighborhood lists the distinct tables under a state (the serendipity
// set a pivot opens), capped at limit, in table-ID order.
func (s *Session) Neighborhood(dim int, state core.StateID, limit int) ([]lake.TableID, error) {
	if dim < 0 || dim >= len(s.orgs.Orgs) {
		return nil, fmt.Errorf("hybrid: dimension %d out of range", dim)
	}
	org := s.orgs.Orgs[dim]
	if int(state) < 0 || int(state) >= len(org.States) || org.State(state).Deleted() {
		return nil, fmt.Errorf("hybrid: state %d invalid", state)
	}
	tables := map[lake.TableID]bool{}
	for _, a := range org.State(state).Domain() {
		tables[s.lake.Attr(a).Table] = true
	}
	out := make([]lake.TableID, 0, len(tables))
	for t := range tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// RelatedQueries suggests follow-up keyword queries from a navigation
// state: the state's most frequent tags become search terms — turning
// navigation context back into the search modality.
func (s *Session) RelatedQueries(dim int, state core.StateID, n int) ([]string, error) {
	if dim < 0 || dim >= len(s.orgs.Orgs) {
		return nil, fmt.Errorf("hybrid: dimension %d out of range", dim)
	}
	org := s.orgs.Orgs[dim]
	if org.State(state).Deleted() {
		return nil, fmt.Errorf("hybrid: state %d deleted", state)
	}
	freq := map[string]int{}
	for _, a := range org.State(state).Domain() {
		for _, tag := range s.lake.AttrTags(a) {
			freq[tag]++
		}
	}
	type tf struct {
		tag string
		n   int
	}
	ranked := make([]tf, 0, len(freq))
	for tag, c := range freq {
		ranked = append(ranked, tf{tag, c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].tag < ranked[j].tag
	})
	if n > 0 && len(ranked) > n {
		ranked = ranked[:n]
	}
	out := make([]string, len(ranked))
	for i, r := range ranked {
		out[i] = r.tag
	}
	return out, nil
}
