package lake

import (
	"fmt"
	"math"

	"lakenav/internal/binfmt"
	"lakenav/internal/embedding"
)

// Binary lake format (binfmt.KindLake). Like the JSON form it persists
// names, tags, and values, but every string is interned once in the
// container's string table, so the heavy duplication across attribute
// values (city names, categories) is stored once and the reader
// rebuilds tables by index instead of parsing. LoadFile sniffs the
// magic and accepts either format.
//
// Unlike the JSON form it can also carry the lake's derived topics
// (sections 8-11): every written attribute's EmbSum and Coverage, the
// embedding dimension, and the identity of the model that derived them
// (embedding.Identity). SaveFileBin writes them only when that model
// has an identity and derived the topics of every live attribute;
// EmbCount is Coverage.EmbeddedTokens (embedding.AddValue adds one
// vector per embedded token), and Topic is recomputed from EmbSum and
// EmbCount as vector.Running.Mean computes it. A loader reuses them
// only for a model with the same identity (HasTopicsFrom) and derives
// the topics afresh otherwise. Files without these sections, which
// older writers produced, load as before.

// lakeFormatVersion is the kindVer of lake containers.
const lakeFormatVersion = 1

// Section ids of a KindLake container.
const (
	secLakeMeta      = 1
	secLakeStrOffs   = 2
	secLakeStrBytes  = 3
	secLakeTables    = 4 // per table: nameRef, tagOff, tagLen, attrOff, attrLen
	secLakeTagRefs   = 5
	secLakeAttrs     = 6 // per attribute: nameRef, valOff, valLen
	secLakeValueRefs = 7
)

// Optional derived-topic sections of a KindLake container, written in
// the order of the attribute records.
const (
	secLakeTopicMeta  = 8  // the embedding dimension
	secLakeTopicModel = 9  // the deriving model's identity string
	secLakeCoverage   = 10 // per attribute: Values, Embedded, Tokens, EmbeddedTokens
	secLakeEmbSums    = 11 // per attribute: dim float64s of EmbSum
)

const (
	lakeTableRecWords    = 5
	lakeAttrRecWords     = 3
	lakeCoverageRecWords = 4
)

// SaveFileBin atomically writes the lake to path in the binary
// container format.
func (l *Lake) SaveFileBin(path string) error {
	st := binfmt.NewStringTableBuilder()
	var tableRecs, tagRefs, attrRecs, valueRefs []uint32
	var written []*Attribute
	for _, t := range l.Tables {
		if t.Removed {
			continue
		}
		nameRef := st.Ref(t.Name)
		tagOff := uint32(len(tagRefs))
		for _, tag := range t.Tags {
			tagRefs = append(tagRefs, st.Ref(tag))
		}
		attrOff := uint32(len(attrRecs) / lakeAttrRecWords)
		for _, aid := range t.Attrs {
			a := l.Attrs[aid]
			written = append(written, a)
			valOff := uint32(len(valueRefs))
			for _, v := range a.Values {
				valueRefs = append(valueRefs, st.Ref(v))
			}
			attrRecs = append(attrRecs, st.Ref(a.Name), valOff, uint32(len(a.Values)))
		}
		tableRecs = append(tableRecs, nameRef,
			tagOff, uint32(len(t.Tags)),
			attrOff, uint32(len(attrRecs)/lakeAttrRecWords)-attrOff)
	}

	w := binfmt.NewWriter(binfmt.KindLake, lakeFormatVersion)
	w.AddUint64s(secLakeMeta, []uint64{uint64(len(tableRecs) / lakeTableRecWords)})
	st.AddTo(w, secLakeStrOffs, secLakeStrBytes)
	w.AddUint32s(secLakeTables, tableRecs)
	w.AddUint32s(secLakeTagRefs, tagRefs)
	w.AddUint32s(secLakeAttrs, attrRecs)
	w.AddUint32s(secLakeValueRefs, valueRefs)
	if l.topicModel != "" {
		cov := make([]uint64, 0, len(written)*lakeCoverageRecWords)
		sums := make([]float64, 0, len(written)*l.dim)
		for _, a := range written {
			c := a.Coverage
			cov = append(cov, uint64(c.Values), uint64(c.Embedded), uint64(c.Tokens), uint64(c.EmbeddedTokens))
			sums = append(sums, a.EmbSum...)
		}
		w.AddUint64s(secLakeTopicMeta, []uint64{uint64(l.dim)})
		w.Add(secLakeTopicModel, []byte(l.topicModel))
		w.AddUint64s(secLakeCoverage, cov)
		w.AddFloat64s(secLakeEmbSums, sums)
	}
	if err := binfmt.WriteFile(path, w); err != nil {
		return fmt.Errorf("lake: save %s: %w", path, err)
	}
	return nil
}

// loadFileBin mmaps and decodes a binary lake file.
func loadFileBin(path string) (*Lake, error) {
	c, err := binfmt.Open(path)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return decodeBinLake(c)
}

func decodeBinLake(c *binfmt.Container) (*Lake, error) {
	kind, ver := c.Kind()
	if kind != binfmt.KindLake {
		return nil, fmt.Errorf("lake: decode container kind %d, want %d", kind, binfmt.KindLake)
	}
	if ver != lakeFormatVersion {
		return nil, fmt.Errorf("lake: decode format version %d, want %d", ver, lakeFormatVersion)
	}
	meta, err := c.Uint64s(secLakeMeta)
	if err != nil {
		return nil, err
	}
	if len(meta) != 1 {
		return nil, fmt.Errorf("lake: decode meta has %d words, want 1", len(meta))
	}
	strs, err := binfmt.ReadStringTable(c, secLakeStrOffs, secLakeStrBytes)
	if err != nil {
		return nil, err
	}
	tableRecs, err := c.Uint32s(secLakeTables)
	if err != nil {
		return nil, err
	}
	if len(tableRecs)%lakeTableRecWords != 0 {
		return nil, fmt.Errorf("lake: decode table section length %d not a record multiple", len(tableRecs))
	}
	if uint64(len(tableRecs)/lakeTableRecWords) != meta[0] {
		return nil, fmt.Errorf("lake: decode meta claims %d tables, section has %d", meta[0], len(tableRecs)/lakeTableRecWords)
	}
	tagRefs, err := c.Uint32s(secLakeTagRefs)
	if err != nil {
		return nil, err
	}
	attrRecs, err := c.Uint32s(secLakeAttrs)
	if err != nil {
		return nil, err
	}
	if len(attrRecs)%lakeAttrRecWords != 0 {
		return nil, fmt.Errorf("lake: decode attribute section length %d not a record multiple", len(attrRecs))
	}
	valueRefs, err := c.Uint32s(secLakeValueRefs)
	if err != nil {
		return nil, err
	}

	span := func(what string, off, cnt uint32, limit int) error {
		if uint64(off)+uint64(cnt) > uint64(limit) {
			return fmt.Errorf("lake: decode %s span [%d,+%d) outside section", what, off, cnt)
		}
		return nil
	}

	l := New()
	for ti := 0; ti < len(tableRecs)/lakeTableRecWords; ti++ {
		rec := tableRecs[ti*lakeTableRecWords:]
		name, err := strs.Lookup(rec[0])
		if err != nil {
			return nil, err
		}
		if err := span("tag", rec[1], rec[2], len(tagRefs)); err != nil {
			return nil, err
		}
		tags := make([]string, rec[2])
		for i := range tags {
			if tags[i], err = strs.Lookup(tagRefs[rec[1]+uint32(i)]); err != nil {
				return nil, err
			}
		}
		if err := span("attribute", rec[3], rec[4], len(attrRecs)/lakeAttrRecWords); err != nil {
			return nil, err
		}
		specs := make([]AttrSpec, rec[4])
		for i := range specs {
			ar := attrRecs[(rec[3]+uint32(i))*lakeAttrRecWords:]
			if specs[i].Name, err = strs.Lookup(ar[0]); err != nil {
				return nil, err
			}
			if err := span("value", ar[1], ar[2], len(valueRefs)); err != nil {
				return nil, err
			}
			vals := make([]string, ar[2])
			for j := range vals {
				if vals[j], err = strs.Lookup(valueRefs[ar[1]+uint32(j)]); err != nil {
					return nil, err
				}
			}
			specs[i].Values = vals
		}
		l.AddTable(name, tags, specs...)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if err := l.decodeTopics(c); err != nil {
		return nil, err
	}
	return l, nil
}

// decodeTopics installs the derived-topic sections, when c has them,
// into l, whose attributes are the container's attribute records in
// order. Every EmbSum and every Topic is a view into one of two flat
// arrays. A section that disagrees with the lake (record count, value
// count, dimension) or with itself (EmbCount beyond the tokens seen, a
// non-zero sum over no vectors, a non-finite component) fails the
// decode: it is never served.
func (l *Lake) decodeTopics(c *binfmt.Container) error {
	if !c.Has(secLakeTopicMeta) {
		return nil
	}
	meta, err := c.Uint64s(secLakeTopicMeta)
	if err != nil {
		return err
	}
	if len(meta) != 1 || meta[0] == 0 || meta[0] > math.MaxInt32 {
		return fmt.Errorf("lake: decode topic meta %v, want one plausible dimension", meta)
	}
	dim := int(meta[0])
	model, err := c.Section(secLakeTopicModel)
	if err != nil {
		return err
	}
	if len(model) == 0 {
		return fmt.Errorf("lake: decode topics carry no model identity")
	}
	cov, err := c.Uint64s(secLakeCoverage)
	if err != nil {
		return err
	}
	if len(cov) != len(l.Attrs)*lakeCoverageRecWords {
		return fmt.Errorf("lake: decode coverage section has %d words, want %d for %d attributes", len(cov), len(l.Attrs)*lakeCoverageRecWords, len(l.Attrs))
	}
	stored, err := c.Float64s(secLakeEmbSums)
	if err != nil {
		return err
	}
	if len(stored) != len(l.Attrs)*dim {
		return fmt.Errorf("lake: decode sum block has %d floats, want %d (%d attributes of dimension %d)", len(stored), len(l.Attrs)*dim, len(l.Attrs), dim)
	}
	sums := make([]float64, len(stored))
	copy(sums, stored)
	topics := make([]float64, len(stored))
	for i, a := range l.Attrs {
		rec := cov[i*lakeCoverageRecWords:]
		values, embedded, tokens, embTokens := rec[0], rec[1], rec[2], rec[3]
		if values != uint64(len(a.Values)) || embedded > values || embTokens > tokens || tokens > math.MaxInt {
			return fmt.Errorf("lake: decode attribute %d coverage %v does not fit its %d values", i, rec[:lakeCoverageRecWords], len(a.Values))
		}
		sum := sums[i*dim : (i+1)*dim : (i+1)*dim]
		for _, x := range sum {
			if math.IsNaN(x) || math.IsInf(x, 0) || (embTokens == 0 && x != 0) {
				return fmt.Errorf("lake: decode attribute %d sum component %v over %d vectors", i, x, embTokens)
			}
		}
		topic := topics[i*dim : (i+1)*dim : (i+1)*dim]
		if embTokens > 0 {
			// vector.Running.Mean's arithmetic, so the bits are a
			// recompute's.
			k := 1 / float64(embTokens)
			for j, x := range sum {
				topic[j] = x * k
			}
		}
		a.EmbSum, a.EmbCount, a.Topic = sum, int(embTokens), topic
		a.Coverage = embedding.CoverageStats{Values: int(values), Embedded: int(embedded), Tokens: int(tokens), EmbeddedTokens: int(embTokens)}
	}
	l.dim = dim
	l.topicModel = string(model)
	return nil
}
