package lakenav

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"lakenav/internal/synth"
)

// demoLake builds a small lake with four topical areas through the
// public API only.
func demoLake() *Lake {
	l := NewLake()
	l.AddTable("fish_inventory", []string{"fisheries", "ocean"},
		Column{Name: "species", Values: []string{"pacific salmon", "atlantic cod", "rainbow trout", "halibut catch"}},
		Column{Name: "weight", Values: []string{"12.5", "8.0", "3.2"}},
	)
	l.AddTable("crop_yields", []string{"agriculture", "grain"},
		Column{Name: "crop", Values: []string{"winter wheat", "spring barley", "yellow corn", "canola seed"}},
	)
	l.AddTable("transit_routes", []string{"city", "transport"},
		Column{Name: "route", Values: []string{"downtown express", "harbour loop", "airport shuttle", "night bus"}},
	)
	l.AddTable("budget_2025", []string{"finance"},
		Column{Name: "category", Values: []string{"capital spending", "operating budget", "debt service", "tax revenue"}},
	)
	l.AddTable("food_inspections", []string{"fisheries", "agriculture"},
		Column{Name: "product", Values: []string{"smoked salmon", "wheat flour", "corn meal", "fish oil"}},
	)
	return l
}

func TestLakeBasics(t *testing.T) {
	l := demoLake()
	if l.Tables() != 5 {
		t.Errorf("Tables = %d", l.Tables())
	}
	if l.Attributes() != 6 {
		t.Errorf("Attributes = %d", l.Attributes())
	}
	if len(l.Tags()) != 7 {
		t.Errorf("Tags = %v", l.Tags())
	}
	if s := l.Stats(); !strings.Contains(s, "tables=5") {
		t.Errorf("Stats = %q", s)
	}
}

func TestAddTag(t *testing.T) {
	l := demoLake()
	if !l.AddTag("budget_2025", "economy") {
		t.Fatal("AddTag failed for existing table")
	}
	if l.AddTag("missing", "x") {
		t.Error("AddTag succeeded for missing table")
	}
	found := false
	for _, tag := range l.Tags() {
		if tag == "economy" {
			found = true
		}
	}
	if !found {
		t.Error("economy tag not registered")
	}
}

func TestOrganizeAndNavigate(t *testing.T) {
	l := demoLake()
	org, err := Organize(l, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if org.Dimensions() != 1 {
		t.Errorf("Dimensions = %d", org.Dimensions())
	}
	if eff := org.Effectiveness(); eff <= 0 || eff > 1 {
		t.Errorf("Effectiveness = %v", eff)
	}

	nav := org.Navigator()
	if nav.Depth() != 1 {
		t.Errorf("initial depth = %d", nav.Depth())
	}
	root := nav.Here()
	if root.IsLeaf || root.Attrs == 0 {
		t.Errorf("root node = %+v", root)
	}
	children := nav.Children()
	if len(children) == 0 {
		t.Fatal("root has no children")
	}
	// Descend to a leaf, verifying the path stays consistent.
	steps := 0
	for !nav.Here().IsLeaf && steps < 50 {
		if !nav.Descend(0) {
			t.Fatal("Descend(0) failed on non-leaf")
		}
		steps++
	}
	if !nav.Here().IsLeaf {
		t.Fatal("never reached a leaf")
	}
	if nav.Here().Table == "" {
		t.Error("leaf has no table")
	}
	// Backtrack to root.
	for nav.Up() {
	}
	if nav.Depth() != 1 {
		t.Errorf("depth after full backtrack = %d", nav.Depth())
	}
	if nav.Descend(999) {
		t.Error("Descend out of range succeeded")
	}
}

func TestNavigatorSuggest(t *testing.T) {
	l := demoLake()
	org, err := Organize(l, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nav := org.Navigator()
	suggestions := nav.Suggest("salmon fishing")
	if len(suggestions) != len(nav.Children()) {
		t.Fatalf("suggestions = %d, children = %d", len(suggestions), len(nav.Children()))
	}
	var sum float64
	for i, s := range suggestions {
		if i > 0 && s.Probability > suggestions[i-1].Probability {
			t.Error("suggestions not sorted")
		}
		sum += s.Probability
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("suggestion probabilities sum to %v", sum)
	}
	// Descending by suggestion index must work.
	if !nav.Descend(suggestions[0].Index) {
		t.Error("Descend by suggestion index failed")
	}
}

func TestWalk(t *testing.T) {
	l := demoLake()
	org, err := Organize(l, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := org.Walk("salmon trout halibut", nil)
	if len(path) < 2 {
		t.Fatalf("walk too short: %v", path)
	}
	leafLabel := path[len(path)-1]
	if !strings.Contains(leafLabel, ".") {
		t.Errorf("walk did not end at a leaf label: %q", leafLabel)
	}
	// Stochastic walk with seed works too.
	path2 := org.Walk("wheat corn", rand.New(rand.NewSource(1)))
	if len(path2) < 2 {
		t.Errorf("stochastic walk too short: %v", path2)
	}
}

func TestMultiDimensional(t *testing.T) {
	l := demoLake()
	cfg := DefaultConfig()
	cfg.Dimensions = 3
	org, err := Organize(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if org.Dimensions() < 1 || org.Dimensions() > 3 {
		t.Errorf("Dimensions = %d", org.Dimensions())
	}
	nav := org.Navigator()
	nav.Reset(org.Dimensions() - 1)
	if nav.Dimension() != org.Dimensions()-1 {
		t.Errorf("Dimension = %d", nav.Dimension())
	}
	nav.Reset(-5)
	if nav.Dimension() != 0 {
		t.Error("invalid Reset dimension not clamped")
	}
}

func TestSuccessProbability(t *testing.T) {
	l := demoLake()
	org, err := Organize(l, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mean := org.SuccessProbability(0)
	if mean <= 0 || mean > 1 {
		t.Errorf("SuccessProbability = %v", mean)
	}
	perTable := org.TableSuccess(0)
	if len(perTable) != 5 {
		t.Errorf("TableSuccess entries = %d", len(perTable))
	}
	for name, p := range perTable {
		if p < 0 || p > 1 {
			t.Errorf("table %s success = %v", name, p)
		}
	}
}

func TestOrganizeValidation(t *testing.T) {
	l := demoLake()
	cfg := DefaultConfig()
	cfg.Dimensions = 0
	if _, err := Organize(l, cfg); err == nil {
		t.Error("Dimensions=0 accepted")
	}
}

func TestSearchEngine(t *testing.T) {
	l := demoLake()
	se := NewSearchEngine(l)
	hits := se.Search("salmon", 5)
	if len(hits) == 0 {
		t.Fatal("no hits for salmon")
	}
	if hits[0] != "fish_inventory" && hits[0] != "food_inspections" {
		t.Errorf("unexpected top hit %q", hits[0])
	}
	if got := se.Search("zzzzunknown", 5); len(got) != 0 {
		t.Errorf("hits for unknown term: %v", got)
	}
}

func TestJSONRoundTripFacade(t *testing.T) {
	l := demoLake()
	path := filepath.Join(t.TempDir(), "lake.json")
	if err := l.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tables() != l.Tables() || got.Attributes() != l.Attributes() {
		t.Error("round trip lost data")
	}
	// A loaded lake organizes fine.
	if _, err := Organize(got, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReport(t *testing.T) {
	l := demoLake()
	org, err := Organize(l, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	org.WriteReport(&buf)
	if !strings.Contains(buf.String(), "effectiveness") {
		t.Errorf("report = %q", buf.String())
	}
}

func TestHybrid(t *testing.T) {
	l := demoLake()
	org, err := Organize(l, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHybrid(l, org)
	if err != nil {
		t.Fatal(err)
	}
	hits := h.Search("salmon", 5)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	hit := hits[0]
	if len(hit.Jumps) == 0 {
		t.Fatal("hit has no jump points")
	}
	jump := hit.Jumps[0]
	if jump.Label == "" || jump.Tables == 0 {
		t.Errorf("jump = %+v", jump)
	}
	nb, err := h.Neighborhood(jump, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(nb) != jump.Tables {
		t.Errorf("neighbourhood %d != advertised %d", len(nb), jump.Tables)
	}
	queries, err := h.RelatedQueries(jump, 3)
	if err != nil || len(queries) == 0 {
		t.Errorf("related queries = %v, %v", queries, err)
	}
}

func TestOrganizationSaveLoad(t *testing.T) {
	l := demoLake()
	org, err := Organize(l, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "org.bin")
	if err := org.Save(path, FormatBin); err != nil {
		t.Fatal(err)
	}
	got, err := LoadOrganization(l, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Effectiveness() != org.Effectiveness() {
		t.Errorf("effectiveness %v != %v after reload", got.Effectiveness(), org.Effectiveness())
	}
	// The reloaded organization navigates identically.
	a := org.Walk("salmon fishing", nil)
	b := got.Walk("salmon fishing", nil)
	if len(a) != len(b) {
		t.Fatalf("walks differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("walk step %d: %q vs %q", i, a[i], b[i])
		}
	}
	if _, err := LoadOrganization(l, filepath.Join(t.TempDir(), "none.bin")); err == nil {
		t.Error("missing file accepted")
	}
}

// A navserver cold start builds the keyword index on a second goroutine
// while LoadOrganization derives the lake's topics and decodes the
// organization. Both only read what the other writes, so the
// concurrent start must load the fingerprint and search results of the
// sequential one; under -race it also checks that they share no
// unsynchronized write.
func TestConcurrentColdStartMatchesSequential(t *testing.T) {
	soc, err := synth.GenerateSocrata(synth.SmallSocrataConfig())
	if err != nil {
		t.Fatal(err)
	}
	l := NewLake()
	words := map[string]bool{}
	for _, tb := range soc.Lake.Tables {
		cols := make([]Column, len(tb.Attrs))
		for c, id := range tb.Attrs {
			a := soc.Lake.Attr(id)
			cols[c] = Column{Name: a.Name, Values: a.Values}
			for _, v := range a.Values {
				for _, w := range strings.Fields(v) {
					words[w] = true
				}
			}
		}
		l.AddTable(tb.Name, tb.Tags, cols...)
	}
	dir := t.TempDir()
	lakePath, orgPath := filepath.Join(dir, "lake.json"), filepath.Join(dir, "org.bin")
	if err := l.Save(lakePath, FormatJSON); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Dimensions = 3
	cfg.MaxIterations = 20
	built, err := Organize(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if built.Dimensions() < 2 {
		t.Fatalf("built %d dimensions; the test needs several to decode at once", built.Dimensions())
	}
	if err := built.Save(orgPath, FormatBin); err != nil {
		t.Fatal(err)
	}
	queries := make([]string, 0, len(words))
	for w := range words {
		queries = append(queries, w)
	}
	sort.Strings(queries)

	coldStart := func(concurrent bool) (*SearchEngine, *Organization) {
		l, err := LoadJSON(lakePath)
		if err != nil {
			t.Fatal(err)
		}
		var search *SearchEngine
		var org *Organization
		if concurrent {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				search = NewSearchEngine(l)
			}()
			org, err = LoadOrganization(l, orgPath)
			wg.Wait()
		} else {
			search = NewSearchEngine(l)
			org, err = LoadOrganization(l, orgPath)
		}
		if err != nil {
			t.Fatal(err)
		}
		return search, org
	}
	seqSearch, seqOrg := coldStart(false)
	conSearch, conOrg := coldStart(true)
	if got, want := conOrg.Fingerprint(), seqOrg.Fingerprint(); got != want {
		t.Errorf("concurrent cold start fingerprint %s, sequential %s", got, want)
	}
	for _, q := range queries {
		if got, want := conSearch.Search(q, 10), seqSearch.Search(q, 10); !slices.Equal(got, want) {
			t.Fatalf("Search(%q): concurrent %v, sequential %v", q, got, want)
		}
	}
}

// The JSON organization is an export, not a load format: handing one
// to LoadOrganization fails with an error that says so.
func TestLoadOrganizationRejectsJSON(t *testing.T) {
	l := demoLake()
	org, err := Organize(l, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "org.json")
	if err := org.Save(path, FormatJSON); err != nil {
		t.Fatal(err)
	}
	_, err = LoadOrganization(l, path)
	if err == nil {
		t.Fatal("JSON organization loaded")
	}
	if !strings.Contains(err.Error(), "not a binary organization") {
		t.Errorf("error %q does not say the file is not a binary organization", err)
	}
}

func TestOrganizationWriteTree(t *testing.T) {
	l := demoLake()
	org, err := Organize(l, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := org.WriteTree(&buf, 4, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dimension 0:") {
		t.Errorf("tree output:\n%s", buf.String())
	}
}
