package lake

import (
	"fmt"

	"lakenav/internal/binfmt"
)

// Binary lake format (binfmt.KindLake). Like the JSON form it persists
// names, tags, and values — topics are recomputed from the embedding
// model — but every string is interned once in the container's string
// table, so the heavy duplication across attribute values (city names,
// categories) is stored once and the reader rebuilds tables by index
// instead of parsing. LoadFile sniffs the magic and accepts either
// format.

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

const (
	lakeTableRecWords = 5
	lakeAttrRecWords  = 3
)

// SaveFileBin atomically writes the lake to path in the binary
// container format.
func (l *Lake) SaveFileBin(path string) error {
	st := binfmt.NewStringTableBuilder()
	var tableRecs, tagRefs, attrRecs, valueRefs []uint32
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
	return l, nil
}
