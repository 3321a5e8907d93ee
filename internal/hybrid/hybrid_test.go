package hybrid

import (
	"strings"
	"testing"

	"lakenav/internal/core"
	"lakenav/internal/embedding"
	"lakenav/internal/lake"
	"lakenav/vector"
)

// prefixModel embeds words by their prefix onto fixed axes.
type prefixModel struct{}

func (prefixModel) Dim() int { return 3 }

func (prefixModel) Lookup(word string) (vector.Vector, bool) {
	switch {
	case strings.HasPrefix(word, "fish"):
		return vector.Vector{1, 0, 0}, true
	case strings.HasPrefix(word, "crop"):
		return vector.Vector{0, 1, 0}, true
	case strings.HasPrefix(word, "city"):
		return vector.Vector{0, 0, 1}, true
	}
	return nil, false
}

func buildSession(t *testing.T) (*Session, *lake.Lake) {
	t.Helper()
	l := lake.New()
	l.AddTable("catch", []string{"fisheries"},
		lake.AttrSpec{Name: "species", Values: []string{"fisha", "fishb"}})
	l.AddTable("quotas", []string{"fisheries", "economy"},
		lake.AttrSpec{Name: "stock", Values: []string{"fishc", "fishd"}})
	l.AddTable("yields", []string{"farming"},
		lake.AttrSpec{Name: "crop", Values: []string{"cropa", "cropb"}})
	l.AddTable("zoning", []string{"urban"},
		lake.AttrSpec{Name: "district", Values: []string{"citya", "cityb"}})
	l.ComputeTopics(prefixModel{})
	m, _, err := core.BuildMultiDim(l, core.MultiDimConfig{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, l
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(nil, nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
}

func TestSearchCarriesJumpPoints(t *testing.T) {
	s, _ := buildSession(t)
	hits := s.Search("fisha", 5)
	if len(hits) != 1 {
		t.Fatalf("hits = %v", hits)
	}
	h := hits[0]
	if h.Name != "catch" {
		t.Errorf("hit = %q", h.Name)
	}
	if len(h.Jumps) == 0 {
		t.Fatal("no jump points")
	}
	jp := h.Jumps[0]
	if jp.Label != "fisheries" {
		t.Errorf("jump label = %q", jp.Label)
	}
	// The fisheries tag state covers both fish tables.
	if jp.Tables != 2 {
		t.Errorf("jump neighbourhood = %d tables", jp.Tables)
	}
}

func TestNeighborhoodOpensSerendipitySet(t *testing.T) {
	s, l := buildSession(t)
	hits := s.Search("fisha", 5)
	jp := hits[0].Jumps[0]
	nb, err := s.Neighborhood(jp.Dim, jp.State, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The pivot surfaces the quotas table, which the query never
	// matched — the serendipity the unified framework is for.
	names := map[string]bool{}
	for _, id := range nb {
		names[l.Table(id).Name] = true
	}
	if !names["catch"] || !names["quotas"] {
		t.Errorf("neighbourhood = %v", names)
	}
	if names["zoning"] {
		t.Error("unrelated table in neighbourhood")
	}
	// Limit caps the set.
	nb, err = s.Neighborhood(jp.Dim, jp.State, 1)
	if err != nil || len(nb) != 1 {
		t.Errorf("limited neighbourhood = %v, %v", nb, err)
	}
	// Invalid inputs.
	if _, err := s.Neighborhood(99, jp.State, 0); err == nil {
		t.Error("bad dimension accepted")
	}
}

func TestRelatedQueries(t *testing.T) {
	s, _ := buildSession(t)
	hits := s.Search("fisha", 5)
	jp := hits[0].Jumps[0]
	queries, err := s.RelatedQueries(jp.Dim, jp.State, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) == 0 || queries[0] != "fisheries" {
		t.Errorf("related queries = %v", queries)
	}
	if _, err := s.RelatedQueries(-1, jp.State, 3); err == nil {
		t.Error("bad dimension accepted")
	}
}

func TestSearchWithExpansion(t *testing.T) {
	// With a store, an off-corpus query word expands to its neighbours.
	store := embedding.NewStore(3)
	store.Add("fisha", vector.Vector{1, 0, 0})
	store.Add("salmon", vector.Vector{0.99, 0.01, 0})

	l := lake.New()
	l.AddTable("catch", []string{"fisheries"},
		lake.AttrSpec{Name: "species", Values: []string{"fisha"}})
	l.ComputeTopics(prefixModel{})
	m, _, err := core.BuildMultiDim(l, core.MultiDimConfig{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(l, m, store)
	if err != nil {
		t.Fatal(err)
	}
	hits := s.Search("salmon", 5)
	if len(hits) != 1 || hits[0].Name != "catch" {
		t.Errorf("expanded search = %v", hits)
	}
}
