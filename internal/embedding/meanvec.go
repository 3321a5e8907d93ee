package embedding

import (
	"strings"
	"unicode"

	"lakenav/vector"
)

// CoverageStats records how much of a value population had embedding
// vectors when computing a topic vector. The paper reports that fastText
// covers ~70% of text-attribute values in its datasets; downstream code
// can inspect coverage to decide whether a topic vector is trustworthy.
type CoverageStats struct {
	// Values is the total number of values considered.
	Values int
	// Embedded is the number of values with at least one embedded token.
	Embedded int
	// Tokens is the total number of tokens considered.
	Tokens int
	// EmbeddedTokens is the number of tokens found in the vocabulary.
	EmbeddedTokens int
}

// ValueCoverage returns the fraction of values with at least one embedded
// token, or 0 when no values were seen.
func (c CoverageStats) ValueCoverage() float64 {
	if c.Values == 0 {
		return 0
	}
	return float64(c.Embedded) / float64(c.Values)
}

// TokenCoverage returns the fraction of tokens found in the vocabulary,
// or 0 when no tokens were seen.
func (c CoverageStats) TokenCoverage() float64 {
	if c.Tokens == 0 {
		return 0
	}
	return float64(c.EmbeddedTokens) / float64(c.Tokens)
}

// Tokenize splits a raw data value into lower-case word tokens, dropping
// punctuation and digits-only tokens. It is intentionally simple: open
// data values are short strings and the embedding model operates on
// single words, as fastText does in the paper.
func Tokenize(value string) []string {
	fields := strings.FieldsFunc(value, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_'
	})
	out := fields[:0]
	for _, f := range fields {
		allDigits := true
		for _, r := range f {
			if !unicode.IsDigit(r) {
				allDigits = false
				break
			}
		}
		if allDigits {
			continue
		}
		out = append(out, strings.ToLower(f))
	}
	return out
}

// MeanVector computes the topic vector of a value population: the sample
// mean of the embeddings of all embedded tokens of all values (Sec 3.1,
// Definition 4). It also returns coverage statistics. ok is false when no
// token was embedded, in which case the returned vector is zero.
func MeanVector(m Model, values []string) (vector.Vector, CoverageStats, bool) {
	run := vector.NewRunning(m.Dim())
	var stats CoverageStats
	for _, val := range values {
		AddValue(run, &stats, Tokenize(val), m.Lookup)
	}
	mean, ok := run.Mean()
	return mean, stats, ok
}

// AddValue is the per-value step of Definition 4, shared by MeanVector
// and the lake's topic kernel: it adds the embedding of every embedded
// token of one value to run, in token order, and counts the value and
// its tokens into stats. lookup resolves one token — a word, or an index
// into a table of words already looked up — to its embedding, or false
// when the token has none.
func AddValue[T any](run *vector.Running, stats *CoverageStats, tokens []T, lookup func(T) (vector.Vector, bool)) {
	stats.Values++
	embedded := false
	for _, tok := range tokens {
		stats.Tokens++
		if v, ok := lookup(tok); ok {
			stats.EmbeddedTokens++
			run.Add(v)
			embedded = true
		}
	}
	if embedded {
		stats.Embedded++
	}
}
