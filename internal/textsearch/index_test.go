package textsearch

import (
	"testing"

	"lakenav/internal/embedding"
	"lakenav/internal/lake"
	"lakenav/internal/synth"
	"lakenav/vector"
)

func buildIndex() *Index {
	x := NewIndex()
	x.Add(Doc{ID: 0, Name: "inspections"}, "food inspection report", "restaurant safety scores")
	x.Add(Doc{ID: 1, Name: "fisheries"}, "fish catch report", "pacific salmon trout")
	x.Add(Doc{ID: 2, Name: "budget"}, "city budget", "spending revenue")
	return x
}

func TestSearchRanksRelevantFirst(t *testing.T) {
	x := buildIndex()
	res := x.Search("food inspection", 10)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if res[0].Doc.ID != 0 {
		t.Errorf("top result = %+v, want inspections", res[0].Doc)
	}
}

func TestSearchSharedTermScoresBoth(t *testing.T) {
	x := buildIndex()
	res := x.Search("report", 10)
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2 (both reports)", len(res))
	}
}

func TestSearchNoHits(t *testing.T) {
	x := buildIndex()
	if res := x.Search("zebra quantum", 10); len(res) != 0 {
		t.Errorf("unexpected hits: %v", res)
	}
}

func TestSearchKLimits(t *testing.T) {
	x := buildIndex()
	if res := x.Search("report", 1); len(res) != 1 {
		t.Errorf("k=1 returned %d", len(res))
	}
	if res := x.Search("report", 0); res != nil {
		t.Errorf("k=0 returned %v", res)
	}
}

func TestSearchEmptyIndex(t *testing.T) {
	x := NewIndex()
	if res := x.Search("anything", 5); len(res) != 0 {
		t.Errorf("empty index returned %v", res)
	}
}

func TestSearchDeterministicTieBreak(t *testing.T) {
	x := NewIndex()
	x.Add(Doc{ID: 5, Name: "a"}, "identical content")
	x.Add(Doc{ID: 3, Name: "b"}, "identical content")
	res := x.Search("identical", 10)
	if len(res) != 2 || res[0].Doc.ID != 3 {
		t.Errorf("tie break wrong: %v", res)
	}
}

func TestIDFPrefersRareTerms(t *testing.T) {
	x := NewIndex()
	// "common" appears everywhere; "rare" once.
	x.Add(Doc{ID: 0, Name: "a"}, "common rare")
	x.Add(Doc{ID: 1, Name: "b"}, "common common")
	x.Add(Doc{ID: 2, Name: "c"}, "common")
	res := x.Search("rare", 10)
	if len(res) != 1 || res[0].Doc.ID != 0 {
		t.Fatalf("rare-term search = %v", res)
	}
	// A query with both terms should still put the rare-term doc first.
	res = x.Search("common rare", 10)
	if res[0].Doc.ID != 0 {
		t.Errorf("combined search top = %+v", res[0].Doc)
	}
}

func TestSearchExpanded(t *testing.T) {
	store := embedding.NewStore(2)
	store.Add("salmon", vector.Vector{1, 0})
	store.Add("trout", vector.Vector{0.95, 0.05})
	store.Add("budget", vector.Vector{0, 1})

	x := NewIndex()
	x.Add(Doc{ID: 0, Name: "t"}, "trout rivers")
	x.Add(Doc{ID: 1, Name: "b"}, "budget planning")

	// Plain search for "salmon" finds nothing.
	if res := x.Search("salmon", 5); len(res) != 0 {
		t.Fatalf("plain search hit %v", res)
	}
	// Expanded search reaches the trout doc through embedding
	// similarity.
	res := x.SearchExpanded("salmon", 5, store, 2, 0.5)
	if len(res) != 1 || res[0].Doc.ID != 0 {
		t.Fatalf("expanded search = %v", res)
	}
	// Disabled expansion behaves like plain search.
	if res := x.SearchExpanded("salmon", 5, store, 0, 0.5); len(res) != 0 {
		t.Errorf("expand=0 still expanded: %v", res)
	}
	if res := x.SearchExpanded("salmon", 5, nil, 3, 0.5); len(res) != 0 {
		t.Errorf("nil store still expanded: %v", res)
	}
}

func TestExpansionWeightBelowOriginal(t *testing.T) {
	store := embedding.NewStore(2)
	store.Add("car", vector.Vector{1, 0})
	store.Add("auto", vector.Vector{0.98, 0.02})

	x := NewIndex()
	x.Add(Doc{ID: 0, Name: "exact"}, "car dealers")
	x.Add(Doc{ID: 1, Name: "synonym"}, "auto dealers")
	res := x.SearchExpanded("car", 5, store, 1, 0.5)
	if len(res) != 2 {
		t.Fatalf("results = %v", res)
	}
	if res[0].Doc.ID != 0 {
		t.Errorf("exact match not ranked above synonym: %v", res)
	}
}

func TestIndexLake(t *testing.T) {
	l := lake.New()
	l.AddTable("inspections", []string{"food"},
		lake.AttrSpec{Name: "facility", Values: []string{"harbour grill", "north cafe"}})
	l.AddTable("transit", []string{"city"},
		lake.AttrSpec{Name: "route", Values: []string{"blue line", "red line"}})
	x := IndexLake(l)
	if len(x.docs) != 2 {
		t.Fatalf("Len = %d", len(x.docs))
	}
	// Match on a value.
	res := x.Search("harbour", 5)
	if len(res) != 1 || res[0].Doc.Name != "inspections" {
		t.Errorf("value search = %v", res)
	}
	// Match on a tag.
	res = x.Search("city", 5)
	if len(res) != 1 || res[0].Doc.Name != "transit" {
		t.Errorf("tag search = %v", res)
	}
	// Match on an attribute name.
	res = x.Search("route", 5)
	if len(res) != 1 || res[0].Doc.Name != "transit" {
		t.Errorf("attr-name search = %v", res)
	}
}

func TestIndexString(t *testing.T) {
	if buildIndex().String() == "" {
		t.Error("empty String")
	}
}

func BenchmarkIndexLake(b *testing.B) {
	soc, err := synth.GenerateSocrata(synth.DefaultSocrataConfig()) // 750 tables
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IndexLake(soc.Lake)
	}
}
