package lake

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"lakenav/internal/atomicio"
	"lakenav/internal/binfmt"
)

// jsonLake is the on-disk form of a Lake. Values are persisted; topic
// vectors are not (they are cheap to recompute and depend on the
// embedding model).
type jsonLake struct {
	Tables []jsonTable `json:"tables"`
}

type jsonTable struct {
	Name  string     `json:"name"`
	Tags  []string   `json:"tags,omitempty"`
	Attrs []jsonAttr `json:"attributes"`
}

type jsonAttr struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// WriteJSON serializes the lake to w.
func (l *Lake) WriteJSON(w io.Writer) error {
	out := jsonLake{Tables: make([]jsonTable, 0, len(l.Tables))}
	for _, t := range l.Tables {
		if t.Removed {
			continue
		}
		jt := jsonTable{Name: t.Name, Tags: t.Tags}
		for _, aid := range t.Attrs {
			a := l.Attrs[aid]
			jt.Attrs = append(jt.Attrs, jsonAttr{Name: a.Name, Values: a.Values})
		}
		out.Tables = append(out.Tables, jt)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("lake: encode: %w", err)
	}
	return nil
}

// ReadJSON deserializes a lake written by WriteJSON. It reads r to its
// end and decodes the first JSON value; see decodeJSON for what it
// accepts.
func ReadJSON(r io.Reader) (*Lake, error) {
	var buf bytes.Buffer
	if f, ok := r.(*os.File); ok {
		// Read a file into a buffer of its size, allocated once.
		if st, err := f.Stat(); err == nil {
			buf.Grow(int(st.Size()) + bytes.MinRead)
		}
	}
	_, err := buf.ReadFrom(r)
	in, err := decodeJSON(buf.Bytes(), err)
	if err != nil {
		return nil, fmt.Errorf("lake: decode: %w", err)
	}
	return in.build()
}

// build returns the lake in describes.
func (in jsonLake) build() (*Lake, error) {
	l := New()
	for _, jt := range in.Tables {
		specs := make([]AttrSpec, 0, len(jt.Attrs))
		for _, ja := range jt.Attrs {
			specs = append(specs, AttrSpec{Name: ja.Name, Values: ja.Values})
		}
		l.AddTable(jt.Name, jt.Tags, specs...)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// SaveFile writes the lake as JSON to path. The write is atomic (temp
// file + fsync + rename): a crash mid-save leaves either the previous
// file or the new one, never a torn lake.
func (l *Lake) SaveFile(path string) error {
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		return l.WriteJSON(w)
	})
	if err != nil {
		return fmt.Errorf("lake: save %s: %w", path, err)
	}
	return nil
}

// LoadFile reads a lake previously written with SaveFile or
// SaveFileBin, sniffing the container magic so both formats are
// accepted.
func LoadFile(path string) (*Lake, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lake: load %s: %w", path, err)
	}
	var head [8]byte
	if n, _ := io.ReadFull(f, head[:]); n == len(head) && binfmt.IsMagic(head[:]) {
		_ = f.Close() // read-only sniff handle
		l, err := loadFileBin(path)
		if err != nil {
			return nil, fmt.Errorf("lake: load %s: %w", path, err)
		}
		return l, nil
	}
	defer f.Close()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("lake: load %s: %w", path, err)
	}
	l, err := ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("lake: load %s: %w", path, err)
	}
	return l, nil
}
