package lake_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"lakenav/internal/embedding"
	"lakenav/internal/lake"
	"lakenav/internal/synth"
	"lakenav/vector"
)

// This file is the topic kernel's oracle: naiveTopic is the per-token
// loop ComputeTopics ran before the kernel — one model.Lookup per token
// occurrence, summed in value and token order — and every test here
// demands ==, not a tolerance, between it and the kernel.

// topicResult is everything the kernel writes on an attribute.
type topicResult struct {
	sum   vector.Vector
	count int
	topic vector.Vector
	cov   embedding.CoverageStats
}

func naiveTopic(model embedding.Model, values []string) topicResult {
	run := vector.NewRunning(model.Dim())
	var cov embedding.CoverageStats
	for _, val := range values {
		cov.Values++
		embedded := false
		for _, tok := range embedding.Tokenize(val) {
			cov.Tokens++
			if v, ok := model.Lookup(tok); ok {
				cov.EmbeddedTokens++
				run.Add(v)
				embedded = true
			}
		}
		if embedded {
			cov.Embedded++
		}
	}
	mean, _ := run.Mean()
	return topicResult{sum: run.Sum(), count: run.Count(), topic: mean, cov: cov}
}

func resultOf(a *lake.Attribute) topicResult {
	return topicResult{sum: a.EmbSum, count: a.EmbCount, topic: a.Topic, cov: a.Coverage}
}

func assertSameTopic(t *testing.T, a *lake.Attribute, got, want topicResult) {
	t.Helper()
	if got.count != want.count || got.cov != want.cov ||
		!slices.Equal(got.sum, want.sum) || !slices.Equal(got.topic, want.topic) {
		t.Fatalf("attr %d (%s): kernel %+v, reference %+v", a.ID, a.Name, got, want)
	}
}

// assertMatchesReference checks every live attribute of l against the
// naive loop under model.
func assertMatchesReference(t *testing.T, l *lake.Lake, model embedding.Model) {
	t.Helper()
	if l.Dim() != model.Dim() {
		t.Fatalf("Dim = %d, want %d", l.Dim(), model.Dim())
	}
	for _, a := range l.Attrs {
		if !a.Removed {
			assertSameTopic(t, a, resultOf(a), naiveTopic(model, a.Values))
		}
	}
}

// withProcs runs fn at GOMAXPROCS procs.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

func socrataLake(t *testing.T) *synth.Socrata {
	t.Helper()
	s, err := synth.GenerateSocrata(synth.SmallSocrataConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestComputeTopicsMatchesReferenceSocrata(t *testing.T) {
	s := socrataLake(t)
	models := map[string]embedding.Model{
		"topicspace": s.Space,
		// lakenav.NewLake's default: words outside the space, 5% uncovered.
		"hashed": embedding.NewHashed(s.Space.Dim(), 1, 0.95),
	}
	for name, model := range models {
		for _, procs := range []int{1, 4} {
			withProcs(procs, func() { s.Lake.ComputeTopics(model) })
			t.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(t *testing.T) {
				assertMatchesReference(t, s.Lake, model)
			})
		}
	}
}

// edgeLake covers what the kernel must not get wrong: empty and blank
// values, digit-only tokens, repeated words, words the model does not
// cover, attributes with no embedded token, and an empty domain.
func edgeLake() *lake.Lake {
	l := lake.New()
	l.AddTable("mixed", []string{"a"},
		lake.AttrSpec{Name: "text", Values: []string{"Fish Salmon", "", "  ", "fish, fish; FISH", "salmon 2019"}},
		lake.AttrSpec{Name: "digits", Values: []string{"2019", "12 345", "3.14"}},
		lake.AttrSpec{Name: "uncovered", Values: []string{"zebra", "yak zebra"}},
		lake.AttrSpec{Name: "empty"},
	)
	l.AddTable("gone", []string{"b"},
		lake.AttrSpec{Name: "names", Values: []string{"salmon trout", "river"}},
	)
	l.AddTable("other", []string{"a", "b"},
		lake.AttrSpec{Name: "partly", Values: []string{"trout zebra", "co2_levels river", "yak"}},
	)
	return l
}

func edgeStore(dim int) *embedding.Store {
	s := embedding.NewStore(dim)
	for i, w := range []string{"fish", "salmon", "trout", "river", "co2_levels"} {
		v := vector.New(dim)
		v[i%dim] = 1
		v[(i+1)%dim] = 0.5 * float64(i+1)
		s.Add(w, v)
	}
	return s
}

func TestComputeTopicsMatchesReferenceEdgeCases(t *testing.T) {
	const dim = 4
	before, after := edgeStore(dim), embedding.NewHashed(dim, 9, 0.5)
	for _, procs := range []int{1, 4} {
		l := edgeLake()
		withProcs(procs, func() { l.ComputeTopics(before) })
		assertMatchesReference(t, l, before)
		for _, name := range []string{"uncovered", "empty"} {
			a := attrNamed(t, l, name)
			if a.EmbCount != 0 || slices.ContainsFunc(a.Topic, func(x float64) bool { return x != 0 }) {
				t.Fatalf("%s: EmbCount %d, Topic %v; want 0 and a zero vector", name, a.EmbCount, a.Topic)
			}
		}

		// A removed attribute keeps the topic it had; live ones move to
		// the new model.
		if _, err := l.ApplyChanges(nil, []string{"gone"}); err != nil {
			t.Fatal(err)
		}
		gone := attrNamed(t, l, "names")
		kept := resultOf(gone)
		withProcs(procs, func() { l.ComputeTopics(after) })
		assertMatchesReference(t, l, after)
		assertSameTopic(t, gone, resultOf(gone), kept)
	}
}

func attrNamed(t *testing.T, l *lake.Lake, name string) *lake.Attribute {
	t.Helper()
	for _, a := range l.Attrs {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no attribute %q", name)
	return nil
}

// TestComputeTopicsForSubsetMatchesComputeTopics pins that the
// incremental entry point computes an attribute exactly as the full
// pass does, and touches nothing else.
func TestComputeTopicsForSubsetMatchesComputeTopics(t *testing.T) {
	s := socrataLake(t)
	model := embedding.NewHashed(s.Space.Dim(), 3, 0.9)
	full := s.Lake.Clone()
	full.ComputeTopics(model)

	var subset []lake.AttrID
	for i := 0; i < len(s.Lake.Attrs); i += 3 {
		subset = append(subset, lake.AttrID(i))
	}
	for _, procs := range []int{1, 4} {
		l := s.Lake.Clone()
		withProcs(procs, func() {
			if err := l.ComputeTopicsFor(model, subset); err != nil {
				t.Fatal(err)
			}
		})
		for i, a := range l.Attrs {
			want := resultOf(s.Lake.Attrs[i]) // untouched: the space's topic
			if i%3 == 0 {
				want = resultOf(full.Attrs[i])
			}
			assertSameTopic(t, a, resultOf(a), want)
		}
	}
}

// countingModel counts Lookup calls per word.
type countingModel struct {
	embedding.Model
	mu    sync.Mutex
	calls map[string]int
}

func newCountingModel(m embedding.Model) *countingModel {
	return &countingModel{Model: m, calls: make(map[string]int)}
}

func (c *countingModel) Lookup(word string) (vector.Vector, bool) {
	c.mu.Lock()
	c.calls[word]++
	c.mu.Unlock()
	return c.Model.Lookup(word)
}

// assertOneLookupPerWord checks that c saw exactly one Lookup for each
// distinct token of the given attributes' values, and no other word.
func assertOneLookupPerWord(t *testing.T, c *countingModel, l *lake.Lake, ids []lake.AttrID) {
	t.Helper()
	distinct := make(map[string]bool)
	occurrences := 0
	for _, id := range ids {
		for _, val := range l.Attrs[id].Values {
			for _, tok := range embedding.Tokenize(val) {
				distinct[tok] = true
				occurrences++
			}
		}
	}
	if len(distinct) == occurrences {
		t.Fatal("test lake repeats no word; it cannot tell per-word from per-occurrence lookups")
	}
	if len(c.calls) != len(distinct) {
		t.Fatalf("looked up %d words, want the %d distinct tokens", len(c.calls), len(distinct))
	}
	for w, n := range c.calls {
		if n != 1 || !distinct[w] {
			t.Fatalf("word %q looked up %d times (a token of these attributes: %v); want once", w, n, distinct[w])
		}
	}
}

func TestComputeTopicsLooksUpEachDistinctTokenOnce(t *testing.T) {
	s := socrataLake(t)
	all := make([]lake.AttrID, len(s.Lake.Attrs))
	for i := range all {
		all[i] = lake.AttrID(i)
	}
	for _, procs := range []int{1, 4} {
		c := newCountingModel(s.Space)
		withProcs(procs, func() { s.Lake.ComputeTopics(c) })
		assertOneLookupPerWord(t, c, s.Lake, all)
		assertMatchesReference(t, s.Lake, s.Space)

		// Repeated ids in an incremental call still cost one lookup per word.
		ids := []lake.AttrID{}
		for _, id := range s.Lake.TextAttrs()[:10] {
			ids = append(ids, id, id)
		}
		c = newCountingModel(s.Space)
		withProcs(procs, func() {
			if err := s.Lake.ComputeTopicsFor(c, ids); err != nil {
				t.Fatal(err)
			}
		})
		assertOneLookupPerWord(t, c, s.Lake, ids)
	}
}

// TestComputeTopicsConcurrentModels runs the kernel's fan-out with each
// Model implementation, so `go test -race` checks the Model contract's
// concurrency half against all three.
func TestComputeTopicsConcurrentModels(t *testing.T) {
	s := socrataLake(t)
	models := map[string]embedding.Model{
		"hashed":     embedding.NewHashed(s.Space.Dim(), 1, 0.95),
		"store":      s.Space.Store(),
		"topicspace": s.Space,
	}
	for name, model := range models {
		t.Run(name, func(t *testing.T) {
			l := s.Lake.Clone()
			withProcs(4, func() { l.ComputeTopics(model) })
			assertMatchesReference(t, l, model)
		})
	}
}
