package lake

import (
	"reflect"
	"testing"

	"lakenav/internal/embedding"
)

func changesTestLake(t *testing.T) *Lake {
	t.Helper()
	l := New()
	l.AddTable("crimes", []string{"crime", "city"},
		AttrSpec{Name: "type", Values: []string{"theft", "assault", "fraud"}},
		AttrSpec{Name: "year", Values: []string{"2019", "2020", "2021"}},
	)
	l.AddTable("permits", []string{"city", "housing"},
		AttrSpec{Name: "kind", Values: []string{"renovation", "demolition"}},
	)
	l.AddTable("parks", []string{"city"},
		AttrSpec{Name: "name", Values: []string{"riverside park", "elm green"}},
	)
	return l
}

func TestApplyChangesRemove(t *testing.T) {
	l := changesTestLake(t)
	sum, err := l.ApplyChanges(nil, []string{"permits"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Removed) != 1 || l.Tables[sum.Removed[0]].Name != "permits" {
		t.Fatalf("removed %v", sum.Removed)
	}
	if len(sum.RemovedAttrs) != 1 {
		t.Fatalf("removed attrs %v", sum.RemovedAttrs)
	}
	if !reflect.DeepEqual(sum.EmptiedTags, []string{"housing"}) {
		t.Fatalf("emptied tags %v, want [housing]", sum.EmptiedTags)
	}
	if _, ok := l.TableByName("permits"); ok {
		t.Fatal("removed table still resolvable by name")
	}
	// Dense IDs survive; the slot is a tombstone.
	if len(l.Tables) != 3 || !l.Tables[1].Removed {
		t.Fatal("tombstone missing")
	}
	if got := l.tagAttrs["housing"]; len(got) != 0 {
		t.Fatalf("data(housing) = %v after removal", got)
	}
	// data(city) keeps the surviving attributes in original order.
	want := []AttrID{l.Tables[0].Attrs[0], l.Tables[0].Attrs[1], l.Tables[2].Attrs[0]}
	if got := l.tagAttrs["city"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("data(city) = %v, want %v", got, want)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyChangesAddAndReplace(t *testing.T) {
	l := changesTestLake(t)
	sum, err := l.ApplyChanges([]TableChange{
		{Name: "parks", Tags: []string{"city", "recreation"},
			Attrs: []AttrSpec{{Name: "name", Values: []string{"north commons"}}}},
		{Name: "budget", Tags: []string{"finance"},
			Attrs: []AttrSpec{{Name: "dept", Values: []string{"transit", "water"}}}},
	}, []string{"parks"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum.NewTags, []string{"recreation", "finance"}) {
		t.Fatalf("new tags %v", sum.NewTags)
	}
	if len(sum.Added) != 2 || len(sum.AddedAttrs) != 2 {
		t.Fatalf("added %v attrs %v", sum.Added, sum.AddedAttrs)
	}
	// The replacement resolves to the new slot.
	nt, ok := l.TableByName("parks")
	if !ok || nt.Removed || nt.ID == 2 {
		t.Fatalf("replaced parks resolves to %+v", nt)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}

	// Failure cases leave the lake untouched.
	for _, bad := range []struct {
		add    []TableChange
		remove []string
	}{
		{add: nil, remove: []string{"nope"}},
		{add: nil, remove: []string{"budget", "budget"}},
		{add: []TableChange{{Name: "budget"}}, remove: nil},
		{add: []TableChange{{Name: "x"}, {Name: "x"}}, remove: nil},
		{add: []TableChange{{Name: ""}}, remove: nil},
	} {
		before := len(l.Tables)
		if _, err := l.ApplyChanges(bad.add, bad.remove); err == nil {
			t.Fatalf("bad batch %+v accepted", bad)
		}
		if len(l.Tables) != before {
			t.Fatalf("failed batch %+v mutated the lake", bad)
		}
	}
}

func TestComputeTopicsForMatchesComputeTopics(t *testing.T) {
	model := embedding.NewHashed(16, 1, 1)
	full := changesTestLake(t)
	full.ComputeTopics(model)

	incr := changesTestLake(t)
	var ids []AttrID
	for _, a := range incr.Attrs {
		ids = append(ids, a.ID)
	}
	if err := incr.ComputeTopicsFor(model, ids); err != nil {
		t.Fatal(err)
	}
	if incr.Dim() != full.Dim() {
		t.Fatalf("dim %d vs %d", incr.Dim(), full.Dim())
	}
	for i := range full.Attrs {
		fa, ia := full.Attrs[i], incr.Attrs[i]
		if fa.EmbCount != ia.EmbCount || !reflect.DeepEqual(fa.Topic, ia.Topic) ||
			!reflect.DeepEqual(fa.EmbSum, ia.EmbSum) || fa.Coverage != ia.Coverage {
			t.Fatalf("attr %d: incremental topics differ from full", i)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	model := embedding.NewHashed(16, 1, 1)
	l := changesTestLake(t)
	l.ComputeTopics(model)
	c := l.Clone()

	wantStats := ComputeStats(c)
	wantCity := append([]AttrID(nil), c.tagAttrs["city"]...)

	sum, err := l.ApplyChanges([]TableChange{
		{Name: "transit", Tags: []string{"city", "transit"},
			Attrs: []AttrSpec{{Name: "route", Values: []string{"red line", "blue line"}}}},
	}, []string{"crimes", "parks"})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ComputeTopicsFor(model, sum.AddedAttrs); err != nil {
		t.Fatal(err)
	}

	if got := ComputeStats(c); !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("clone stats drifted:\n got %+v\nwant %+v", got, wantStats)
	}
	if got := c.tagAttrs["city"]; !reflect.DeepEqual(got, wantCity) {
		t.Fatalf("clone data(city) drifted: %v vs %v", got, wantCity)
	}
	if _, ok := c.TableByName("crimes"); !ok {
		t.Fatal("clone lost a table removed from the original")
	}
	if _, ok := c.TableByName("transit"); ok {
		t.Fatal("clone gained a table added to the original")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
