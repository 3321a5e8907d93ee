package lake

import (
	"runtime"

	"lakenav/internal/embedding"
	"lakenav/internal/parallel"
	"lakenav/vector"
)

// computeTopics is the topic kernel behind ComputeTopics and
// ComputeTopicsFor: it sets Topic, EmbSum, EmbCount and Coverage of
// every attribute in ids (Definition 4) and records the lake's
// embedding dimension. It runs in three passes:
//
//  1. tokenize every value once, numbering the distinct words in
//     first-seen order and recording each value's tokens as numbers;
//  2. look each distinct word up exactly once, the words split into
//     fixed contiguous chunks over GOMAXPROCS goroutines;
//  3. sum each attribute's token vectors in value and token order, the
//     attributes split the same way.
//
// A lake repeats its words (a default Socrata lake has ~41.5k token
// occurrences over ~6.1k distinct words), and a Hashed lookup seeds a
// fresh math/rand source per call, so pass 2 is where the saving is.
// The output is bit-identical to looking every occurrence up in turn,
// for any GOMAXPROCS: the embedding.Model contract makes a word's
// vector a pure function of the word, and pass 3 adds the same vectors
// in the same order into the same accumulator. Each fork writes only
// its own table entries (pass 2) or attributes (pass 3).
func (l *Lake) computeTopics(model embedding.Model, ids []AttrID) {
	dim := model.Dim()
	l.dim = dim

	// Pass 1. attrOff[k]..attrOff[k+1] are the values of attrs[k];
	// valOff[v]..valOff[v+1] are value v's entries in toks. An id listed
	// twice is computed once: two forks writing one attribute would race.
	attrs := make([]*Attribute, 0, len(ids))
	seen := make([]bool, len(l.Attrs))
	index := make(map[string]int32)
	var words []string
	var toks []int32
	attrOff := []int{0}
	valOff := []int{0}
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		a := l.Attrs[id]
		attrs = append(attrs, a)
		for _, val := range a.Values {
			for _, w := range embedding.Tokenize(val) {
				t, ok := index[w]
				if !ok {
					t = int32(len(words))
					index[w] = t
					words = append(words, w)
				}
				toks = append(toks, t)
			}
			valOff = append(valOff, len(toks))
		}
		attrOff = append(attrOff, len(valOff)-1)
	}

	// Pass 2.
	type entry struct {
		vec vector.Vector
		ok  bool
	}
	table := make([]entry, len(words))
	workers := runtime.GOMAXPROCS(0)
	parallel.For(len(words), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			table[i].vec, table[i].ok = model.Lookup(words[i])
		}
	})

	// Pass 3.
	lookup := func(t int32) (vector.Vector, bool) { return table[t].vec, table[t].ok }
	parallel.For(len(attrs), workers, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			run := vector.NewRunning(dim)
			var cov embedding.CoverageStats
			for v := attrOff[k]; v < attrOff[k+1]; v++ {
				embedding.AddValue(run, &cov, toks[valOff[v]:valOff[v+1]], lookup)
			}
			a := attrs[k]
			a.EmbSum = run.Sum()
			a.EmbCount = run.Count()
			a.Topic, _ = run.Mean()
			a.Coverage = cov
		}
	})
}
