// Package binfmt implements the repository's versioned binary container
// format: the cold-start substrate under every durable binary artifact
// (organizations, checkpoints, lakes, embedding stores).
//
// # Format
//
// A container is a little-endian file laid out for one-pass reading or
// mmap:
//
//	header (32 bytes)
//	  magic    [8]byte  "LNAVBIN" + container version
//	  kind     uint32   payload kind (see Kind constants)
//	  kindVer  uint32   payload format version, owned by the payload
//	  nsec     uint32   number of sections
//	  tableCRC uint32   CRC-32C of header bytes 0..20 + the section table
//	  fileSize uint64   total container length (truncation guard)
//	section table (nsec × 24 bytes)
//	  id   uint32   section identifier, unique per container
//	  crc  uint32   CRC-32C of the section payload
//	  off  uint64   absolute payload offset, 8-byte aligned
//	  len  uint64   payload length in bytes
//	payloads, each 8-byte aligned, zero-padded between
//
// The alignment rule is what makes the format mmap-friendly: a section
// holding packed float64 or uint32 data can be aliased directly over
// the mapped bytes on little-endian hosts (the only copy on the
// cold-start path is the one into the live arena). Every section is
// guarded by CRC-32C, the section table by its own CRC, and the file
// length by the header, so truncation, flipped bytes, and misdirected
// offsets all surface as errors — never as panics or over-allocation:
// every decode-side allocation is bounded by the actual file size.
//
// Writing goes through WriteFile, which routes the bytes through the
// internal/atomicio funnel (temp + fsync + rename + directory fsync);
// the lakelint atomicfunnel check enforces that no other package calls
// Writer.WriteTo on a durable path directly.
package binfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"lakenav/internal/atomicio"
)

// Version is the container format version, stamped into the magic.
const Version = 1

// Payload kinds. The registry is central so two packages can never
// claim the same kind; readers reject containers of the wrong kind
// before touching any section.
const (
	// KindOrg is a single organization (internal/core).
	KindOrg uint32 = 1
	// KindMultiDim is a multi-dimensional organization (internal/core).
	KindMultiDim uint32 = 2
	// KindCheckpoint is an optimizer search checkpoint (internal/core).
	KindCheckpoint uint32 = 3
	// KindLake is a data lake snapshot (internal/lake).
	KindLake uint32 = 4
	// Kind 5 was the embedding store, retired with its codec; it stays
	// reserved so no future payload reuses the number.
)

const (
	headerSize   = 32
	secEntrySize = 24
	align        = 8
	// maxSections bounds the section table so a corrupt count cannot
	// drive a large allocation; no payload needs more than a handful.
	maxSections = 4096
)

// magic identifies a binfmt container; the final byte is Version.
var magic = [8]byte{'L', 'N', 'A', 'V', 'B', 'I', 'N', Version}

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms we serve from.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether the running machine is little-
// endian, which is what allows zero-copy aliasing of packed sections.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ErrBadMagic reports that bytes are not a binfmt container (or are a
// container of an unknown version). Callers sniffing a file format
// branch on it to fall back to JSON or legacy readers.
var ErrBadMagic = errors.New("binfmt: bad magic")

// IsMagic reports whether b begins with the container magic — the
// format-sniffing hook for readers that accept both JSON and binary.
func IsMagic(b []byte) bool {
	return len(b) >= len(magic) && bytes.Equal(b[:len(magic)], magic[:])
}

func alignUp(n uint64) uint64 {
	return (n + align - 1) &^ (align - 1)
}

// Writer accumulates sections and serializes them as one container.
// Payload slices are retained until WriteTo, not copied; callers must
// not mutate them in between.
type Writer struct {
	kind, kindVer uint32
	ids           []uint32
	payloads      [][]byte
}

// NewWriter returns an empty container writer for the given payload
// kind and payload format version.
func NewWriter(kind, kindVer uint32) *Writer {
	return &Writer{kind: kind, kindVer: kindVer}
}

// Add appends a section. Section ids must be unique; duplicates are
// reported by WriteTo.
func (w *Writer) Add(id uint32, payload []byte) {
	w.ids = append(w.ids, id)
	w.payloads = append(w.payloads, payload)
}

// AddUint32s appends a section of packed little-endian uint32s.
func (w *Writer) AddUint32s(id uint32, v []uint32) {
	w.Add(id, uint32sToBytes(v))
}

// AddUint64s appends a section of packed little-endian uint64s.
func (w *Writer) AddUint64s(id uint32, v []uint64) {
	w.Add(id, uint64sToBytes(v))
}

// AddFloat64s appends a section of packed little-endian float64 bit
// patterns — the arena-shaped vector block layout.
func (w *Writer) AddFloat64s(id uint32, v []float64) {
	w.Add(id, float64sToBytes(v))
}

// table computes the section table and the total file size.
func (w *Writer) table() ([]byte, uint64, error) {
	seen := make(map[uint32]bool, len(w.ids))
	tab := make([]byte, len(w.ids)*secEntrySize)
	off := alignUp(headerSize + uint64(len(tab)))
	for i, id := range w.ids {
		if seen[id] {
			return nil, 0, fmt.Errorf("binfmt: duplicate section id %d", id)
		}
		seen[id] = true
		e := tab[i*secEntrySize:]
		binary.LittleEndian.PutUint32(e[0:4], id)
		binary.LittleEndian.PutUint32(e[4:8], crc32.Checksum(w.payloads[i], crcTable))
		binary.LittleEndian.PutUint64(e[8:16], off)
		binary.LittleEndian.PutUint64(e[16:24], uint64(len(w.payloads[i])))
		off = alignUp(off + uint64(len(w.payloads[i])))
	}
	return tab, off, nil
}

// WriteTo serializes the container. The stream is written front to
// back in one pass; callers that need durability use WriteFile, which
// stages this through the atomicio funnel.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	tab, total, err := w.table()
	if err != nil {
		return 0, err
	}
	hdr := make([]byte, headerSize)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], w.kind)
	binary.LittleEndian.PutUint32(hdr[12:16], w.kindVer)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(len(w.ids)))
	// The table CRC also covers the header prefix, so a flipped kind or
	// section-count byte is caught at parse time, not by a decoder.
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.Update(crc32.Checksum(hdr[:20], crcTable), crcTable, tab))
	binary.LittleEndian.PutUint64(hdr[24:32], total)

	var n int64
	emit := func(p []byte) error {
		if len(p) == 0 {
			return nil
		}
		m, err := out.Write(p)
		n += int64(m)
		if err != nil {
			return fmt.Errorf("binfmt: write: %w", err)
		}
		if m != len(p) {
			return fmt.Errorf("binfmt: short write (%d of %d bytes)", m, len(p))
		}
		return nil
	}
	if err := emit(hdr); err != nil {
		return n, err
	}
	if err := emit(tab); err != nil {
		return n, err
	}
	var pad [align]byte
	off := uint64(headerSize + len(tab))
	for _, p := range w.payloads {
		if a := alignUp(off); a > off {
			if err := emit(pad[:a-off]); err != nil {
				return n, err
			}
			off = a
		}
		if err := emit(p); err != nil {
			return n, err
		}
		off += uint64(len(p))
	}
	if a := alignUp(off); a > off {
		if err := emit(pad[:a-off]); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Bytes serializes the container to memory — the nesting hook: a
// multi-dimensional container embeds each dimension's org container as
// an opaque section payload.
func (w *Writer) Bytes() ([]byte, error) {
	_, total, err := w.table()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(int(total))
	if _, err := w.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteFile atomically writes the container to path through the
// internal/atomicio funnel: a crash mid-write leaves either the old
// file or the new one, never a torn container.
func WriteFile(path string, w *Writer) error {
	err := atomicio.WriteFile(path, func(out io.Writer) error {
		_, werr := w.WriteTo(out)
		return werr
	})
	if err != nil {
		return fmt.Errorf("binfmt: write %s: %w", path, err)
	}
	return nil
}

// Container is a parsed, read-only view over a container's bytes
// (heap-resident or mmap'd). Section payloads returned by Section and
// the packed-slice accessors alias the underlying bytes: they are
// read-only, and must not be retained past Close.
type Container struct {
	data          []byte
	kind, kindVer uint32
	ids           []uint32
	crcs          []uint32
	offs          []uint64
	lens          []uint64
	verified      []bool
	munmap        func() error
}

// New parses container bytes. The header, section table CRC, file
// length, section alignment, and section bounds are all validated up
// front; per-section payload CRCs are verified on first access.
func New(data []byte) (*Container, error) {
	if !IsMagic(data) {
		return nil, ErrBadMagic
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("binfmt: %d-byte container shorter than the %d-byte header", len(data), headerSize)
	}
	nsec := binary.LittleEndian.Uint32(data[16:20])
	if nsec > maxSections {
		return nil, fmt.Errorf("binfmt: implausible section count %d (max %d)", nsec, maxSections)
	}
	fileSize := binary.LittleEndian.Uint64(data[24:32])
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("binfmt: header claims %d bytes, file has %d (truncated or torn)", fileSize, len(data))
	}
	tabEnd := headerSize + uint64(nsec)*secEntrySize
	if tabEnd > uint64(len(data)) {
		return nil, fmt.Errorf("binfmt: section table extends past the file")
	}
	tab := data[headerSize:tabEnd]
	got := crc32.Update(crc32.Checksum(data[:20], crcTable), crcTable, tab)
	if want := binary.LittleEndian.Uint32(data[20:24]); got != want {
		return nil, fmt.Errorf("binfmt: header/table CRC %08x, header says %08x", got, want)
	}
	c := &Container{
		data:     data,
		kind:     binary.LittleEndian.Uint32(data[8:12]),
		kindVer:  binary.LittleEndian.Uint32(data[12:16]),
		ids:      make([]uint32, nsec),
		crcs:     make([]uint32, nsec),
		offs:     make([]uint64, nsec),
		lens:     make([]uint64, nsec),
		verified: make([]bool, nsec),
	}
	seen := make(map[uint32]bool, nsec)
	for i := range c.ids {
		e := tab[i*secEntrySize:]
		c.ids[i] = binary.LittleEndian.Uint32(e[0:4])
		c.crcs[i] = binary.LittleEndian.Uint32(e[4:8])
		c.offs[i] = binary.LittleEndian.Uint64(e[8:16])
		c.lens[i] = binary.LittleEndian.Uint64(e[16:24])
		if seen[c.ids[i]] {
			return nil, fmt.Errorf("binfmt: duplicate section id %d", c.ids[i])
		}
		seen[c.ids[i]] = true
		if c.offs[i]%align != 0 {
			return nil, fmt.Errorf("binfmt: section %d offset %d not %d-byte aligned", c.ids[i], c.offs[i], align)
		}
		if c.offs[i] < tabEnd || c.offs[i]+c.lens[i] < c.offs[i] || c.offs[i]+c.lens[i] > uint64(len(data)) {
			return nil, fmt.Errorf("binfmt: section %d spans [%d, %d) outside the file", c.ids[i], c.offs[i], c.offs[i]+c.lens[i])
		}
	}
	return c, nil
}

// Kind returns the payload kind and payload format version.
func (c *Container) Kind() (kind, kindVer uint32) { return c.kind, c.kindVer }

// Close releases the mapping when the container was mmap'd; it is a
// no-op for heap-resident containers. No section payload may be used
// after Close.
func (c *Container) Close() error {
	c.data = nil
	if c.munmap != nil {
		m := c.munmap
		c.munmap = nil
		return m()
	}
	return nil
}

// Has reports whether the container holds a section with the given id,
// the test an optional section's reader makes before reading it.
func (c *Container) Has(id uint32) bool {
	for _, x := range c.ids {
		if x == id {
			return true
		}
	}
	return false
}

// Section returns a section's payload, verifying its CRC-32C on first
// access. The returned slice aliases the container bytes: read-only,
// invalid after Close.
func (c *Container) Section(id uint32) ([]byte, error) {
	for i, x := range c.ids {
		if x != id {
			continue
		}
		p := c.data[c.offs[i] : c.offs[i]+c.lens[i]]
		if !c.verified[i] {
			if got := crc32.Checksum(p, crcTable); got != c.crcs[i] {
				return nil, fmt.Errorf("binfmt: section %d CRC %08x, table says %08x (corrupt payload)", id, got, c.crcs[i])
			}
			c.verified[i] = true
		}
		return p, nil
	}
	return nil, fmt.Errorf("binfmt: no section %d", id)
}

// Uint32s returns a section decoded as packed little-endian uint32s.
// On little-endian hosts the result aliases the container bytes.
func (c *Container) Uint32s(id uint32) ([]uint32, error) {
	p, err := c.Section(id)
	if err != nil {
		return nil, err
	}
	if len(p)%4 != 0 {
		return nil, fmt.Errorf("binfmt: section %d length %d not a multiple of 4", id, len(p))
	}
	if len(p) == 0 {
		return nil, nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&p[0])), len(p)/4), nil
	}
	out := make([]uint32, len(p)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(p[i*4:])
	}
	return out, nil
}

// Uint64s returns a section decoded as packed little-endian uint64s.
// On little-endian hosts the result aliases the container bytes.
func (c *Container) Uint64s(id uint32) ([]uint64, error) {
	p, err := c.Section(id)
	if err != nil {
		return nil, err
	}
	if len(p)%8 != 0 {
		return nil, fmt.Errorf("binfmt: section %d length %d not a multiple of 8", id, len(p))
	}
	if len(p) == 0 {
		return nil, nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&p[0])), len(p)/8), nil
	}
	out := make([]uint64, len(p)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(p[i*8:])
	}
	return out, nil
}

// Float64s returns a section decoded as packed little-endian float64
// bit patterns. On little-endian hosts the result aliases the
// container bytes — the zero-copy path a cold-starting arena bulk-
// copies from. Callers must treat it as read-only and copy anything
// they keep.
func (c *Container) Float64s(id uint32) ([]float64, error) {
	p, err := c.Section(id)
	if err != nil {
		return nil, err
	}
	if len(p)%8 != 0 {
		return nil, fmt.Errorf("binfmt: section %d length %d not a multiple of 8", id, len(p))
	}
	if len(p) == 0 {
		return nil, nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*float64)(unsafe.Pointer(&p[0])), len(p)/8), nil
	}
	out := make([]float64, len(p)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
	}
	return out, nil
}

// uint32sToBytes packs v little-endian; zero-copy on LE hosts.
func uint32sToBytes(v []uint32) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
	}
	out := make([]byte, len(v)*4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[i*4:], x)
	}
	return out
}

// uint64sToBytes packs v little-endian; zero-copy on LE hosts.
func uint64sToBytes(v []uint64) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
	}
	out := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[i*8:], x)
	}
	return out
}

// float64sToBytes packs v as little-endian bit patterns; zero-copy on
// LE hosts.
func float64sToBytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
	}
	out := make([]byte, len(v)*8)
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(x))
	}
	return out
}
