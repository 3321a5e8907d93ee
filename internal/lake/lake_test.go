package lake

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"lakenav/internal/embedding"
	"lakenav/vector"
)

// twoAxisModel embeds "fish*" words near the x axis and "city*" words
// near the y axis for easy geometric assertions.
type twoAxisModel struct{}

func (twoAxisModel) Dim() int { return 2 }

func (twoAxisModel) Lookup(word string) (vector.Vector, bool) {
	switch {
	case strings.HasPrefix(word, "fish"):
		return vector.Vector{1, 0}, true
	case strings.HasPrefix(word, "city"):
		return vector.Vector{0, 1}, true
	}
	return nil, false
}

func buildTestLake(t testing.TB) *Lake {
	t.Helper()
	l := New()
	l.AddTable("fisheries", []string{"ocean", "food"},
		AttrSpec{Name: "species", Values: []string{"fish salmon", "fish trout"}},
		AttrSpec{Name: "count", Values: []string{"10", "20", "30"}},
	)
	l.AddTable("urban", []string{"city"},
		AttrSpec{Name: "district", Values: []string{"city north", "city south"}},
	)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAddTableBasics(t *testing.T) {
	l := buildTestLake(t)
	if len(l.Tables) != 2 || len(l.Attrs) != 3 {
		t.Fatalf("tables=%d attrs=%d", len(l.Tables), len(l.Attrs))
	}
	if got := l.Tags(); len(got) != 3 {
		t.Errorf("tags = %v", got)
	}
	ft := l.Table(0)
	if ft.Name != "fisheries" || len(ft.Attrs) != 2 {
		t.Errorf("table 0 = %+v", ft)
	}
	a := l.Attr(ft.Attrs[0])
	if a.Name != "species" || a.Table != 0 {
		t.Errorf("attr = %+v", a)
	}
}

func TestAddTableDedupsTags(t *testing.T) {
	l := New()
	tb := l.AddTable("t", []string{"x", "x", "", "y"})
	if len(tb.Tags) != 2 {
		t.Errorf("tags = %v, want [x y]", tb.Tags)
	}
}

func TestTagAttrs(t *testing.T) {
	l := buildTestLake(t)
	ocean := l.tagAttrs["ocean"]
	if len(ocean) != 2 {
		t.Fatalf("data(ocean) = %v, want both fisheries attrs", ocean)
	}
	if got := l.tagAttrs["nonexistent"]; got != nil {
		t.Errorf("data(nonexistent) = %v", got)
	}
	// Text-only filter drops the numeric count column.
	text := l.TextTagAttrs("ocean")
	if len(text) != 1 || l.Attr(text[0]).Name != "species" {
		t.Errorf("TextTagAttrs(ocean) = %v", text)
	}
}

func TestIsTextDomain(t *testing.T) {
	tests := []struct {
		name   string
		values []string
		want   bool
	}{
		{"all text", []string{"a", "b"}, true},
		{"all numeric", []string{"1", "2.5", "-3"}, false},
		{"numeric with separators", []string{"1,000", "2,500"}, false},
		{"mixed majority text", []string{"a", "b", "1"}, true},
		{"mixed majority numeric", []string{"a", "1", "2"}, false},
		{"empty", nil, false},
		{"only blank", []string{"", "  "}, false},
	}
	for _, tt := range tests {
		if got := IsTextDomain(tt.values); got != tt.want {
			t.Errorf("%s: IsTextDomain = %v, want %v", tt.name, got, tt.want)
		}
	}
}

// referenceIsTextDomain is IsTextDomain before its pre-check: every
// trimmed non-empty value goes to ParseFloat.
func referenceIsTextDomain(values []string) bool {
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

// TestIsTextDomainMatchesReference checks the first-byte pre-check
// against the rule it guards, one value at a time and over the whole
// list: signs and commas in any order, inf/infinity/nan spellings, hex
// floats, underscores, out-of-range exponents (a range error counts as
// non-numeric), non-ASCII digits and surrounding whitespace.
func TestIsTextDomainMatchesReference(t *testing.T) {
	values := []string{
		"0", "42", "-3", "+.5", ".5", "5.", "-.5e-3", "1e400", "-1e400", "1e-400",
		"1,000", "1,000.25", ",5", "-,5", ",-,5", "+,,5", ",,", ",", "-", "+", "-,", ".", "e5",
		"inf", "-inf", "+Inf", "INF", "Infinity", "-infinity", "infinit", "info", "iNfInItY",
		"NaN", "nan", "-nan", "+NaN", "nano", "N", "i", "n",
		"0x1p-2", "0X1P+2", "-0x1.8p1", "0x10", "0x_1p0", "1_000", "1__0", "_1", "0b101", "0o17",
		"１２３", "١٢٣", "1 2", "12abc", "abc", "Nevada", "index", "-x", "+Inf,",
		" 5 ", "\t-1,000\n", "\u00a05", "\u30005\u3000", "5\u200b", "  ", "",
	}
	for _, v := range values {
		one := []string{v}
		if got, want := IsTextDomain(one), referenceIsTextDomain(one); got != want {
			t.Errorf("IsTextDomain(%q) = %v, reference %v", v, got, want)
		}
	}
	if got, want := IsTextDomain(values), referenceIsTextDomain(values); got != want {
		t.Errorf("IsTextDomain(all) = %v, reference %v", got, want)
	}
}

// TestIsTextDomainEarlyExitMatchesFullCount checks the majority
// short-cut against the full-count rule over random domains of every
// length up to 24, drawn from numeric, comma-grouped, text, empty and
// whitespace-only values so that ties, all-blank domains and majorities
// decided at every position all occur.
func TestIsTextDomainEarlyExitMatchesFullCount(t *testing.T) {
	pool := []string{
		"1", "-2.5", "1,000", "1,000,000.5", ",5", "inf", "NaN", " 7 ",
		"fish", "Nevada", "1 2", "12abc", "-x", ",",
		"", " ", "\t", "　",
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 24; n++ {
		for trial := 0; trial < 400; trial++ {
			values := make([]string, n)
			for i := range values {
				values[i] = pool[rng.Intn(len(pool))]
			}
			if got, want := IsTextDomain(values), referenceIsTextDomain(values); got != want {
				t.Fatalf("IsTextDomain(%q) = %v, full count %v", values, got, want)
			}
		}
	}
}

// TestIsTextDomainNoAlloc pins the point of the pre-check: classifying
// a comma-free text domain allocates nothing.
func TestIsTextDomainNoAlloc(t *testing.T) {
	values := []string{"topic000_w0036", " Harbour Grill ", "café", "-x", "+", "Über", "１２３", "zebra"}
	allocs := testing.AllocsPerRun(100, func() {
		if !IsTextDomain(values) {
			t.Fatal("text domain classified numeric")
		}
	})
	if allocs != 0 {
		t.Errorf("IsTextDomain allocated %.1f times per run, want 0", allocs)
	}
}

func TestComputeTopics(t *testing.T) {
	l := buildTestLake(t)
	l.ComputeTopics(twoAxisModel{})
	if l.Dim() != 2 {
		t.Fatalf("Dim = %d", l.Dim())
	}
	species := l.Attr(0)
	if vector.Cosine(species.Topic, vector.Vector{1, 0}) < 0.99 {
		t.Errorf("species topic = %v, want x axis", species.Topic)
	}
	if species.EmbCount != 2 {
		t.Errorf("species EmbCount = %d, want 2 (only fish tokens embed)", species.EmbCount)
	}
	count := l.Attr(1)
	if count.EmbCount != 0 {
		t.Errorf("numeric attr embedded %d tokens", count.EmbCount)
	}
	district := l.Attr(2)
	if vector.Cosine(district.Topic, vector.Vector{0, 1}) < 0.99 {
		t.Errorf("district topic = %v, want y axis", district.Topic)
	}
	if species.Coverage.Values != 2 || species.Coverage.Embedded != 2 {
		t.Errorf("species coverage = %+v", species.Coverage)
	}
}

func TestTagTopic(t *testing.T) {
	l := buildTestLake(t)
	l.ComputeTopics(twoAxisModel{})
	v, ok := l.TagTopic("ocean")
	if !ok {
		t.Fatal("TagTopic(ocean) reported no content")
	}
	if vector.Cosine(v, vector.Vector{1, 0}) < 0.99 {
		t.Errorf("ocean topic = %v, want x axis", v)
	}
	if _, ok := l.TagTopic("nonexistent"); ok {
		t.Error("TagTopic(nonexistent) reported content")
	}
}

func TestTagTopicPanicsBeforeCompute(t *testing.T) {
	l := buildTestLake(t)
	defer func() {
		if recover() == nil {
			t.Fatal("TagTopic before ComputeTopics did not panic")
		}
	}()
	l.TagTopic("ocean")
}

func TestAddTag(t *testing.T) {
	l := buildTestLake(t)
	l.AddTag(1, "metropolitan")
	if got := l.tagAttrs["metropolitan"]; len(got) != 1 {
		t.Fatalf("data(metropolitan) = %v", got)
	}
	// Idempotent.
	l.AddTag(1, "metropolitan")
	if got := l.tagAttrs["metropolitan"]; len(got) != 1 {
		t.Errorf("AddTag not idempotent: %v", got)
	}
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
}

func TestQualifiedName(t *testing.T) {
	l := buildTestLake(t)
	if got := l.Attr(0).QualifiedName(l); got != "fisheries.species" {
		t.Errorf("QualifiedName = %q", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	l := buildTestLake(t)
	l.Attrs[0].Table = 1
	if err := l.Validate(); err == nil {
		t.Error("corrupted back-reference accepted")
	}
}

func TestComputeStats(t *testing.T) {
	l := buildTestLake(t)
	l.ComputeTopics(twoAxisModel{})
	s := ComputeStats(l)
	if s.Tables != 2 || s.Attrs != 3 || s.TextAttrs != 2 || s.Tags != 3 {
		t.Errorf("stats = %+v", s)
	}
	// ocean:2 + food:2 + city:1 = 5 associations.
	if s.AttrTagAssociations != 5 {
		t.Errorf("AttrTagAssociations = %d, want 5", s.AttrTagAssociations)
	}
	if s.TablesWithTextAttr != 1.0 {
		t.Errorf("TablesWithTextAttr = %v", s.TablesWithTextAttr)
	}
	if s.EmbeddedAttrs != 2 {
		t.Errorf("EmbeddedAttrs = %d", s.EmbeddedAttrs)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestComputeTopicsWithHashedModel(t *testing.T) {
	l := buildTestLake(t)
	m := embedding.NewHashed(16, 1, 1)
	l.ComputeTopics(m)
	for _, a := range l.Attrs {
		if !a.Text {
			continue
		}
		if a.EmbCount == 0 {
			t.Errorf("attr %s not embedded under full-coverage model", a.Name)
		}
		// Any NaN or Inf component makes the norm NaN or Inf.
		if n := vector.Norm(a.Topic); math.IsNaN(n) || math.IsInf(n, 0) {
			t.Errorf("attr %s topic not finite", a.Name)
		}
	}
}

func TestAssociateTag(t *testing.T) {
	l := buildTestLake(t)
	// Per-attribute association: only the species attr, not its
	// siblings.
	l.AssociateTag(0, "seafood")
	if got := l.tagAttrs["seafood"]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("data(seafood) = %v", got)
	}
	tags := l.AttrTags(0)
	want := map[string]bool{"ocean": true, "food": true, "seafood": true}
	if len(tags) != 3 {
		t.Fatalf("AttrTags = %v", tags)
	}
	for _, tag := range tags {
		if !want[tag] {
			t.Errorf("unexpected tag %q", tag)
		}
	}
	// Idempotent.
	l.AssociateTag(0, "seafood")
	if got := l.tagAttrs["seafood"]; len(got) != 1 {
		t.Errorf("AssociateTag not idempotent: %v", got)
	}
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
}

func TestAttrTagsInheritedFromTable(t *testing.T) {
	l := buildTestLake(t)
	// Attribute 2 (district) belongs to the urban table tagged city.
	tags := l.AttrTags(2)
	if len(tags) != 1 || tags[0] != "city" {
		t.Errorf("AttrTags(district) = %v", tags)
	}
}

func TestAddTagMaintainsAttrTags(t *testing.T) {
	l := buildTestLake(t)
	l.AddTag(1, "metro")
	tags := l.AttrTags(2)
	found := false
	for _, tag := range tags {
		if tag == "metro" {
			found = true
		}
	}
	if !found {
		t.Errorf("AttrTags after AddTag = %v", tags)
	}
}
