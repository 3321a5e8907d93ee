package textsearch

import (
	"math"
	"sort"
	"testing"

	"lakenav/internal/embedding"
	"lakenav/internal/lake"
	"lakenav/internal/synth"
)

// This file is the index's oracle: refIndex is the index before its
// postings became per-term slices — one map from document to term
// frequency per term — and the test demands identical documents and
// identical score bits from the two.

type refIndex struct {
	docs     []Doc
	postings map[string]map[int]int
	docLen   []int
	totalLen int
}

func newRefIndexLake(l *lake.Lake) *refIndex {
	x := &refIndex{postings: make(map[string]map[int]int)}
	for _, t := range l.Tables {
		if t.Removed {
			continue
		}
		fields := append([]string{t.Name}, t.Tags...)
		for _, aid := range t.Attrs {
			a := l.Attr(aid)
			fields = append(fields, a.Name)
			fields = append(fields, l.AttrTags(aid)...)
			fields = append(fields, a.Values...)
		}
		idx := len(x.docs)
		x.docs = append(x.docs, Doc{ID: int(t.ID), Name: t.Name})
		length := 0
		for _, f := range fields {
			for _, tok := range embedding.Words(f) {
				length++
				if x.postings[tok] == nil {
					x.postings[tok] = make(map[int]int)
				}
				x.postings[tok][idx]++
			}
		}
		x.docLen = append(x.docLen, length)
		x.totalLen += length
	}
	return x
}

func (x *refIndex) search(query string, k int) []Result {
	var terms []weightedTerm
	for _, tok := range embedding.Words(query) {
		terms = append(terms, weightedTerm{tok, 1})
	}
	return x.rank(terms, k)
}

func (x *refIndex) searchExpanded(query string, k int, store *embedding.Store, expand int, weight float64) []Result {
	seen := make(map[string]bool)
	var terms []weightedTerm
	for _, tok := range embedding.Words(query) {
		if !seen[tok] {
			seen[tok] = true
			terms = append(terms, weightedTerm{tok, 1})
		}
		for _, n := range store.NearestWord(tok, expand, true) {
			if !seen[n.Word] {
				seen[n.Word] = true
				terms = append(terms, weightedTerm{n.Word, weight * n.Similarity})
			}
		}
	}
	return x.rank(terms, k)
}

func (x *refIndex) rank(terms []weightedTerm, k int) []Result {
	n := float64(len(x.docs))
	avgLen := x.totalLen / len(x.docs)
	if avgLen == 0 {
		avgLen = 1
	}
	scores := make(map[int]float64)
	for _, wt := range terms {
		posting, ok := x.postings[wt.term]
		if !ok {
			continue
		}
		df := float64(len(posting))
		idf := math.Log(1 + (n-df+0.5)/(df+0.5))
		for docIdx, tf := range posting {
			tfF := float64(tf)
			dl := float64(x.docLen[docIdx])
			denom := tfF + defaultK1*(1-defaultB+defaultB*dl/float64(avgLen))
			scores[docIdx] += wt.weight * idf * tfF * (defaultK1 + 1) / denom
		}
	}
	var out []Result
	for docIdx, s := range scores {
		if s > 0 {
			out = append(out, Result{Doc: x.docs[docIdx], Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc.ID < out[j].Doc.ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// sameResults reports whether a and b list the same documents with
// bit-identical scores.
func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestIndexMatchesReference runs every vocabulary word of a generated
// lake through Search, alone and paired with the next word and with
// itself (a repeated term scores twice), and through SearchExpanded,
// against the map-based reference, ranking every document.
func TestIndexMatchesReference(t *testing.T) {
	soc, err := synth.GenerateSocrata(synth.SmallSocrataConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := IndexLake(soc.Lake)
	ref := newRefIndexLake(soc.Lake)
	if len(x.postings) != len(ref.postings) {
		t.Fatalf("index has %d terms, reference %d", len(x.postings), len(ref.postings))
	}
	words := make([]string, 0, len(ref.postings))
	for w := range ref.postings {
		words = append(words, w)
	}
	sort.Strings(words)
	store := soc.Space.Store()
	k := len(ref.docs)
	for i, w := range words {
		next := words[(i+1)%len(words)]
		for _, q := range []string{w, w + " " + next, w + " " + w} {
			if got, want := x.Search(q, k), ref.search(q, k); !sameResults(got, want) {
				t.Fatalf("Search(%q) = %v, reference %v", q, got, want)
			}
		}
		if got, want := x.SearchExpanded(w, k, store, 5, 0.6), ref.searchExpanded(w, k, store, 5, 0.6); !sameResults(got, want) {
			t.Fatalf("SearchExpanded(%q) = %v, reference %v", w, got, want)
		}
	}
}
