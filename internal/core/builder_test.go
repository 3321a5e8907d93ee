package core

import (
	"math"
	"strings"
	"testing"

	"lakenav/internal/lake"
	"lakenav/vector"
)

// axisModel embeds words by prefix onto four fixed directions, giving
// tests exact control over topic geometry.
type axisModel struct{}

func (axisModel) Dim() int { return 4 }

func (axisModel) Lookup(word string) (vector.Vector, bool) {
	axes := map[string]vector.Vector{
		"fish":  {1, 0, 0, 0},
		"grain": {0, 1, 0, 0},
		"city":  {0, 0, 1, 0},
		"tax":   {0, 0, 0, 1},
	}
	for prefix, v := range axes {
		if strings.HasPrefix(word, prefix) {
			// Slight tilt per word keeps same-axis words distinct.
			out := v.Clone()
			out[(len(word)+1)%4] += 0.05
			return vector.Normalize(out), true
		}
	}
	return nil, false
}

// testLake builds a small lake with four clean topics and one
// cross-topic table.
func testLake(t testing.TB) *lake.Lake {
	t.Helper()
	l := lake.New()
	l.AddTable("fishlist", []string{"fishery"},
		lake.AttrSpec{Name: "species", Values: []string{"fisha", "fishb", "fishc"}})
	l.AddTable("grains", []string{"grain"},
		lake.AttrSpec{Name: "crop", Values: []string{"graina", "grainb"}})
	l.AddTable("urban", []string{"city"},
		lake.AttrSpec{Name: "district", Values: []string{"citya", "cityb"}})
	l.AddTable("budget", []string{"tax"},
		lake.AttrSpec{Name: "category", Values: []string{"taxa", "taxb"}},
		lake.AttrSpec{Name: "amount", Values: []string{"10", "20"}})
	l.AddTable("inspections", []string{"fishery", "grain"},
		lake.AttrSpec{Name: "product", Values: []string{"fishd", "grainc"}})
	l.ComputeTopics(axisModel{})
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewFlatStructure(t *testing.T) {
	l := testLake(t)
	o, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	// 6 text attrs (amount is numeric): species, crop, district,
	// category, product; product counted once. So 5 leaves.
	if got := len(o.Attrs()); got != 5 {
		t.Errorf("organized attrs = %d, want 5", got)
	}
	root := o.State(o.Root)
	if root.Kind != KindInterior {
		t.Errorf("root kind = %v", root.Kind)
	}
	// Flat root has all 4 tag states as children.
	if len(root.Children) != 4 {
		t.Errorf("root children = %d, want 4", len(root.Children))
	}
	for _, c := range root.Children {
		if o.State(c).Kind != KindTag {
			t.Errorf("flat root child %d is %v", c, o.State(c).Kind)
		}
	}
	// Root domain covers every organized attribute.
	if root.DomainSize() != 5 {
		t.Errorf("root domain = %d, want 5", root.DomainSize())
	}
}

func TestNewFlatSkipsNumericAttrs(t *testing.T) {
	l := testLake(t)
	o, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range o.Attrs() {
		if !l.Attr(a).Text {
			t.Errorf("numeric attr %d organized", a)
		}
	}
}

func TestTagStateDomains(t *testing.T) {
	l := testLake(t)
	o, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fishery := o.State(o.tagStateID("fishery"))
	// data(fishery) = species + product.
	if fishery.DomainSize() != 2 {
		t.Errorf("fishery domain = %v", fishery.Domain())
	}
	// Tag state topic is near the fish axis (product tilts it slightly).
	if c := vector.Cosine(fishery.Topic(), vector.Vector{1, 0, 0, 0}); c < 0.6 {
		t.Errorf("fishery topic cosine to fish axis = %v", c)
	}
}

func TestNewClusteredStructure(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	root := o.State(o.Root)
	if root.Kind != KindInterior {
		t.Fatalf("root kind = %v", root.Kind)
	}
	// Binary dendrogram over 4 tags: root has 2 children.
	if len(root.Children) != 2 {
		t.Errorf("clustered root children = %d, want 2", len(root.Children))
	}
	if root.DomainSize() != 5 {
		t.Errorf("root domain = %d, want 5", root.DomainSize())
	}
	// 5 leaves + 4 tag states + 3 interior = 12 states.
	if got := o.LiveStates(); got != 12 {
		t.Errorf("live states = %d, want 12", got)
	}
}

func TestBuildWithTagSubset(t *testing.T) {
	l := testLake(t)
	o, err := NewFlat(l, BuildConfig{Tags: []string{"fishery", "grain"}})
	if err != nil {
		t.Fatal(err)
	}
	// species, crop, product.
	if got := len(o.Attrs()); got != 3 {
		t.Errorf("subset attrs = %d, want 3", got)
	}
	if o.tagStateID("city") != -1 {
		t.Error("city organized despite subset")
	}
}

func TestBuildErrors(t *testing.T) {
	l := testLake(t)
	if _, err := NewFlat(l, BuildConfig{Gamma: -1}); err == nil {
		t.Error("negative gamma accepted")
	}
	if _, err := NewFlat(l, BuildConfig{Tags: []string{"nonexistent"}}); err == nil {
		t.Error("unknown tag subset accepted")
	}
	empty := lake.New()
	if _, err := NewFlat(empty, BuildConfig{}); err == nil {
		t.Error("lake without topics accepted")
	}
}

func TestBuildSingleTag(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{Tags: []string{"city"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(o.State(o.Root).Children); got != 1 {
		t.Errorf("single-tag root children = %d", got)
	}
}

func TestLevels(t *testing.T) {
	l := testLake(t)
	o, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	levels := o.Levels()
	if levels[o.Root] != 0 {
		t.Errorf("root level = %d", levels[o.Root])
	}
	for _, tag := range []string{"fishery", "grain", "city", "tax"} {
		if lv := levels[o.tagStateID(tag)]; lv != 1 {
			t.Errorf("tag %s level = %d, want 1", tag, lv)
		}
	}
	for _, a := range o.Attrs() {
		if lv := levels[o.Leaf(a)]; lv != 2 {
			t.Errorf("leaf of %d level = %d, want 2", a, lv)
		}
	}
}

func TestTopoOrder(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	order := o.Topo()
	pos := make(map[StateID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	if pos[o.Root] != 0 {
		t.Errorf("root not first in topo order")
	}
	for _, id := range order {
		for _, c := range o.State(id).Children {
			if pos[c] <= pos[id] {
				t.Fatalf("topo violation: %d before parent %d", c, id)
			}
		}
	}
}

func TestTransitionProbsSumToOne(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	topic := vector.Vector{1, 0, 0, 0}
	for _, s := range o.States {
		if len(s.Children) == 0 {
			continue
		}
		probs := o.TransitionProbs(s.ID, topic)
		var sum float64
		for _, p := range probs {
			if p < 0 || p > 1 {
				t.Fatalf("transition prob %v out of range", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("state %d transitions sum to %v", s.ID, sum)
		}
	}
}

func TestTransitionPrefersSimilarChild(t *testing.T) {
	l := testLake(t)
	o, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fishTopic := vector.Vector{1, 0, 0, 0}
	probs := o.TransitionProbs(o.Root, fishTopic)
	children := o.State(o.Root).Children
	var fishProb, maxOther float64
	for i, c := range children {
		if o.State(c).Tags[0] == "fishery" {
			fishProb = probs[i]
		} else if probs[i] > maxOther {
			maxOther = probs[i]
		}
	}
	if fishProb <= maxOther {
		t.Errorf("fishery prob %v not above others (max %v)", fishProb, maxOther)
	}
}

func TestReachProbs(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	topic := vector.Vector{1, 0, 0, 0}
	reach := o.reachProbs(topic)
	if reach[o.Root] != 1 {
		t.Errorf("root reach = %v", reach[o.Root])
	}
	// In a tree, reach probabilities at any level sum to <= 1 and tag
	// states' total equals 1 (all mass flows to some tag state).
	var tagSum float64
	for _, ts := range o.TagStates() {
		r := reach[ts]
		if r < 0 || r > 1 {
			t.Fatalf("tag state reach %v out of range", r)
		}
		tagSum += r
	}
	if math.Abs(tagSum-1) > 1e-9 {
		t.Errorf("tag-state reach sum = %v, want 1 in a tree", tagSum)
	}
}

func TestDiscoveryProbFavorsOwnAttr(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Attr 0 is species (fish axis). Searching with its own topic should
	// find it with higher probability than searching with the tax topic.
	species := o.Attrs()[0]
	own := o.discoveryProb(species)
	if own <= 0 || own > 1 {
		t.Fatalf("DiscoveryProb = %v", own)
	}
	taxTopic := vector.Vector{0, 0, 0, 1}
	cross := o.leafProb(species, taxTopic, o.reachProbs(taxTopic))
	if cross >= own {
		t.Errorf("cross-topic prob %v >= own-topic prob %v", cross, own)
	}
}

func TestEffectivenessBounds(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eff := o.Effectiveness()
	if eff <= 0 || eff > 1 {
		t.Errorf("effectiveness = %v", eff)
	}
}

func TestTableProb(t *testing.T) {
	l := testLake(t)
	o, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	probs := o.AttrDiscoveryProbs()
	for _, tb := range l.Tables {
		p := o.TableProb(tb, probs)
		if p < 0 || p > 1 {
			t.Fatalf("table %s prob = %v", tb.Name, p)
		}
	}
	// A table's probability is at least each single attribute's.
	budget := l.Tables[3]
	catIdx := -1
	for i, a := range o.Attrs() {
		if l.Attr(a).Name == "category" {
			catIdx = i
		}
	}
	if catIdx == -1 {
		t.Fatal("category not organized")
	}
	if p := o.TableProb(budget, probs); p < probs[catIdx]-1e-12 {
		t.Errorf("table prob %v below attr prob %v", p, probs[catIdx])
	}
}

func TestWalkReachesLeaf(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fishTopic := vector.Vector{1, 0, 0, 0}
	path := o.Walk(fishTopic, nil)
	if len(path) < 3 {
		t.Fatalf("path too short: %v", path)
	}
	if path[0] != o.Root {
		t.Error("path does not start at root")
	}
	last := o.State(path[len(path)-1])
	if last.Kind != KindLeaf {
		t.Errorf("path ends at %v", last.Kind)
	}
	// Greedy walk under the fish topic should land on a fish attribute.
	name := l.Attr(last.Attr).Name
	if name != "species" && name != "product" {
		t.Errorf("greedy fish walk found %q", name)
	}
}

// tagStateID returns the tag state of tag, or -1 if the tag is not
// organized.
func (o *Org) tagStateID(tag string) StateID {
	if id, ok := o.tagState[tag]; ok {
		return id
	}
	return -1
}
