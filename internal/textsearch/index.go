// Package textsearch implements the keyword-search comparator of the
// paper's user study (Sec 4.4): BM25 document search over table data and
// metadata, with optional embedding-based query expansion standing in
// for the paper's GloVe-powered synonym expansion on top of Xapian.
package textsearch

import (
	"fmt"
	"math"
	"sort"

	"lakenav/internal/embedding"
	"lakenav/internal/lake"
)

// BM25 parameters; the standard Robertson values used by Xapian.
const (
	defaultK1 = 1.2
	defaultB  = 0.75
)

// Doc is one searchable document.
type Doc struct {
	// ID is the caller's identifier (table ID for lake indexes).
	ID int
	// Name is kept for display.
	Name string
}

// Index is an in-memory inverted index with BM25 ranking.
type Index struct {
	k1, b    float64
	docs     []Doc
	terms    map[string]int32 // term → its row of postings
	postings [][]posting      // per term, its documents in insertion order
	docLen   []int
	totalLen int
}

// posting is one document's term frequency in a term's posting list.
type posting struct {
	doc, tf int32
}

// NewIndex returns an empty index with standard BM25 parameters.
func NewIndex() *Index {
	return &Index{k1: defaultK1, b: defaultB, terms: make(map[string]int32)}
}

// Add indexes a document composed of the given text fields and returns
// its internal position.
func (x *Index) Add(doc Doc, fields ...string) int {
	idx := len(x.docs)
	x.docs = append(x.docs, doc)
	length := 0
	var toks embedding.Tokens
	for _, f := range fields {
		toks.Split(f)
		for i := 0; i < toks.Len(); i++ {
			length++
			t, ok := x.terms[string(toks.At(i))] // no copy to look up
			if !ok {
				t = int32(len(x.postings))
				x.terms[string(toks.At(i))] = t
				x.postings = append(x.postings, nil)
			}
			// Documents are added in order, so this document's posting,
			// if the term has one yet, is the row's last.
			ps := x.postings[t]
			if n := len(ps); n > 0 && ps[n-1].doc == int32(idx) {
				ps[n-1].tf++
			} else {
				x.postings[t] = append(ps, posting{doc: int32(idx), tf: 1})
			}
		}
	}
	x.docLen = append(x.docLen, length)
	x.totalLen += length
	return idx
}

// Result is one ranked hit.
type Result struct {
	Doc   Doc
	Score float64
}

// weightedTerm is a query term with a weight; expansion terms carry
// weights below 1 so original terms dominate.
type weightedTerm struct {
	term   string
	weight float64
}

// Search runs a BM25 query and returns up to k results in descending
// score order. Ties are broken by document insertion order for
// reproducibility.
func (x *Index) Search(query string, k int) []Result {
	terms := make([]weightedTerm, 0, 8)
	for _, tok := range embedding.Words(query) { // tokenized as documents are
		terms = append(terms, weightedTerm{tok, 1})
	}
	return x.search(terms, k)
}

// SearchExpanded runs a BM25 query with embedding-based expansion: each
// query term contributes its expand nearest vocabulary neighbours (from
// store) at the given weight. This mirrors the user study's semantic
// search engine, where GloVe similarity identified related terms and
// expansion could be disabled by the user.
func (x *Index) SearchExpanded(query string, k int, store *embedding.Store, expand int, weight float64) []Result {
	seen := make(map[string]bool)
	var terms []weightedTerm
	for _, tok := range embedding.Words(query) {
		if !seen[tok] {
			seen[tok] = true
			terms = append(terms, weightedTerm{tok, 1})
		}
		if store == nil || expand <= 0 {
			continue
		}
		for _, n := range store.NearestWord(tok, expand, true) {
			if seen[n.Word] {
				continue
			}
			seen[n.Word] = true
			terms = append(terms, weightedTerm{n.Word, weight * n.Similarity})
		}
	}
	return x.search(terms, k)
}

func (x *Index) search(terms []weightedTerm, k int) []Result {
	if k <= 0 || len(x.docs) == 0 {
		return nil
	}
	n := float64(len(x.docs))
	avgLen := x.totalLen / len(x.docs)
	if avgLen == 0 {
		avgLen = 1
	}
	scores := make(map[int]float64)
	for _, wt := range terms {
		t, ok := x.terms[wt.term]
		if !ok {
			continue
		}
		ps := x.postings[t]
		df := float64(len(ps))
		idf := math.Log(1 + (n-df+0.5)/(df+0.5))
		for _, p := range ps {
			tfF := float64(p.tf)
			dl := float64(x.docLen[p.doc])
			denom := tfF + x.k1*(1-x.b+x.b*dl/float64(avgLen))
			scores[int(p.doc)] += wt.weight * idf * tfF * (x.k1 + 1) / denom
		}
	}
	out := make([]Result, 0, len(scores))
	for docIdx, s := range scores {
		if s <= 0 {
			// Zero-weight expansion terms can touch documents without
			// contributing score; such hits are noise.
			continue
		}
		out = append(out, Result{Doc: x.docs[docIdx], Score: s})
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

// IndexLake builds a table-level index over a lake: each table is one
// document whose fields are its name, tags, attribute names, and
// attribute values — the same metadata+data scope the study's search
// engine covered.
func IndexLake(l *lake.Lake) *Index {
	x := NewIndex()
	var fields []string // reused: Add keeps none of it
	for _, t := range l.Tables {
		if t.Removed {
			continue
		}
		fields = append(fields[:0], t.Name)
		fields = append(fields, t.Tags...)
		for _, aid := range t.Attrs {
			a := l.Attr(aid)
			fields = append(fields, a.Name)
			for _, tag := range l.AttrTags(aid) {
				fields = append(fields, tag)
			}
			fields = append(fields, a.Values...)
		}
		x.Add(Doc{ID: int(t.ID), Name: t.Name}, fields...)
	}
	return x
}

// String summarizes the index for diagnostics.
func (x *Index) String() string {
	return fmt.Sprintf("textsearch.Index{docs=%d terms=%d}", len(x.docs), len(x.postings))
}
