package binfmt

import "fmt"

// StringTableBuilder interns strings for a container: each distinct
// string gets one uint32 ref, and record sections store refs instead
// of inline bytes. The table serializes as two sections — a boundary
// offset array (n+1 uint32s) and one concatenated byte blob — so the
// reader indexes strings without scanning.
type StringTableBuilder struct {
	refs map[string]uint32
	strs []string
	size int
}

// NewStringTableBuilder returns an empty builder.
func NewStringTableBuilder() *StringTableBuilder {
	return &StringTableBuilder{refs: make(map[string]uint32)}
}

// Ref interns s and returns its table index.
func (b *StringTableBuilder) Ref(s string) uint32 {
	if r, ok := b.refs[s]; ok {
		return r
	}
	r := uint32(len(b.strs))
	b.refs[s] = r
	b.strs = append(b.strs, s)
	b.size += len(s)
	return r
}

// AddTo appends the table's two sections to w under the given ids.
func (b *StringTableBuilder) AddTo(w *Writer, offsID, bytesID uint32) {
	offs := make([]uint32, len(b.strs)+1)
	blob := make([]byte, 0, b.size)
	for i, s := range b.strs {
		blob = append(blob, s...)
		offs[i+1] = uint32(len(blob))
	}
	w.AddUint32s(offsID, offs)
	w.Add(bytesID, blob)
}

// StringTable is the read side: refs resolve to strings by slicing the
// blob between adjacent boundaries. The blob is copied out of the
// container once, as one string, so a lookup allocates nothing and its
// result survives Close; every string a decoder keeps shares that copy.
type StringTable struct {
	offs []uint32
	blob string
}

// ReadStringTable parses a string table from a container's offset and
// byte sections, validating that the boundaries are monotonic and stay
// within the blob — so a corrupt ref array cannot cause a slice panic.
func ReadStringTable(c *Container, offsID, bytesID uint32) (*StringTable, error) {
	offs, err := c.Uint32s(offsID)
	if err != nil {
		return nil, err
	}
	blob, err := c.Section(bytesID)
	if err != nil {
		return nil, err
	}
	if len(offs) == 0 {
		return nil, fmt.Errorf("binfmt: string table section %d is empty (needs at least the zero boundary)", offsID)
	}
	if offs[0] != 0 || uint64(offs[len(offs)-1]) != uint64(len(blob)) {
		return nil, fmt.Errorf("binfmt: string table boundaries [%d, %d] do not span the %d-byte blob", offs[0], offs[len(offs)-1], len(blob))
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return nil, fmt.Errorf("binfmt: string table boundary %d decreases (%d after %d)", i, offs[i], offs[i-1])
		}
	}
	return &StringTable{offs: offs, blob: string(blob)}, nil
}

// Len returns the number of strings in the table.
func (t *StringTable) Len() int { return len(t.offs) - 1 }

// Lookup resolves a ref to a substring of the table's one copy of the
// blob.
func (t *StringTable) Lookup(ref uint32) (string, error) {
	if int(ref) >= t.Len() {
		return "", fmt.Errorf("binfmt: string ref %d out of range (table has %d)", ref, t.Len())
	}
	return t.blob[t.offs[ref]:t.offs[ref+1]], nil
}
