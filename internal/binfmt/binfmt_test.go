package binfmt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"lakenav/internal/faultinject"
)

// testWriter builds a container exercising every packed-section flavor,
// an empty section, and a raw byte section.
func testWriter() *Writer {
	w := NewWriter(KindOrg, 7)
	w.AddUint64s(1, []uint64{3, 1 << 40, 0})
	w.AddUint32s(2, []uint32{0xdeadbeef, 0, 42})
	w.AddFloat64s(3, []float64{1.5, -0.25, 0})
	w.Add(4, []byte("raw bytes, unaligned length"))
	w.Add(5, nil)
	return w
}

func mustBytes(t *testing.T, w *Writer) []byte {
	t.Helper()
	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRoundTrip(t *testing.T) {
	data := mustBytes(t, testWriter())
	c, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if kind, ver := c.Kind(); kind != KindOrg || ver != 7 {
		t.Fatalf("Kind() = %d, %d; want %d, 7", kind, ver, KindOrg)
	}
	u64, err := c.Uint64s(1)
	if err != nil || len(u64) != 3 || u64[1] != 1<<40 {
		t.Fatalf("Uint64s = %v, %v", u64, err)
	}
	u32, err := c.Uint32s(2)
	if err != nil || len(u32) != 3 || u32[0] != 0xdeadbeef {
		t.Fatalf("Uint32s = %v, %v", u32, err)
	}
	f64, err := c.Float64s(3)
	if err != nil || len(f64) != 3 || f64[1] != -0.25 {
		t.Fatalf("Float64s = %v, %v", f64, err)
	}
	raw, err := c.Section(4)
	if err != nil || string(raw) != "raw bytes, unaligned length" {
		t.Fatalf("Section(4) = %q, %v", raw, err)
	}
	empty, err := c.Section(5)
	if err != nil || len(empty) != 0 {
		t.Fatalf("Section(5) = %v, %v", empty, err)
	}
	if _, err := c.Section(99); err == nil {
		t.Fatal("Section(99) should fail")
	}
}

func TestWriteToMatchesBytes(t *testing.T) {
	w := testWriter()
	data := mustBytes(t, w)
	var buf bytes.Buffer
	n, err := w.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) || !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("WriteTo wrote %d bytes, Bytes() has %d; equal=%v", n, len(data), bytes.Equal(buf.Bytes(), data))
	}
	if uint64(n)%align != 0 {
		t.Fatalf("container length %d not %d-byte aligned", n, align)
	}
}

func TestEmptyContainer(t *testing.T) {
	data := mustBytes(t, NewWriter(KindLake, 1))
	c, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Section(1); err == nil {
		t.Fatal("empty container has sections")
	}
}

func TestDuplicateSectionID(t *testing.T) {
	w := NewWriter(KindOrg, 1)
	w.AddUint32s(1, []uint32{1})
	w.AddUint32s(1, []uint32{2})
	if _, err := w.Bytes(); err == nil {
		t.Fatal("duplicate section id not rejected")
	}
}

// TestByteLayoutPin pins the on-disk layout to exact little-endian
// bytes, independent of host endianness: any host producing different
// bytes has broken cross-machine compatibility.
func TestByteLayoutPin(t *testing.T) {
	w := NewWriter(KindOrg, 7)
	w.AddUint32s(1, []uint32{0x11223344})
	data := mustBytes(t, w)
	// header(32) + 1 table entry(24) = 56, already 8-aligned: payload at 56.
	if len(data) != 64 {
		t.Fatalf("container length %d, want 64", len(data))
	}
	wantMagic := []byte{'L', 'N', 'A', 'V', 'B', 'I', 'N', 1}
	if !bytes.Equal(data[:8], wantMagic) {
		t.Fatalf("magic %v, want %v", data[:8], wantMagic)
	}
	if data[8] != byte(KindOrg) || data[12] != 7 || data[16] != 1 {
		t.Fatalf("kind/kindVer/nsec bytes wrong: % x", data[8:20])
	}
	if got := binary.LittleEndian.Uint64(data[24:32]); got != 64 {
		t.Fatalf("fileSize field = %d, want 64", got)
	}
	// Table entry: id, crc, off=56, len=4.
	if got := binary.LittleEndian.Uint32(data[32:36]); got != 1 {
		t.Fatalf("section id = %d", got)
	}
	if got := binary.LittleEndian.Uint64(data[40:48]); got != 56 {
		t.Fatalf("section off = %d, want 56", got)
	}
	if got := binary.LittleEndian.Uint64(data[48:56]); got != 4 {
		t.Fatalf("section len = %d, want 4", got)
	}
	if want := []byte{0x44, 0x33, 0x22, 0x11}; !bytes.Equal(data[56:60], want) {
		t.Fatalf("payload bytes % x, want % x", data[56:60], want)
	}
}

// readAll parses data and reads every section, forcing all CRC checks.
func readAll(data []byte) error {
	c, err := New(data)
	if err != nil {
		return err
	}
	defer c.Close()
	for _, id := range c.ids {
		if _, err := c.Section(id); err != nil {
			return err
		}
	}
	return nil
}

// TestCorruptByteSweep flips every byte of a container in turn. Flips
// inside the header, section table, or any payload must surface as
// errors; flips in alignment padding are the only ones allowed to pass
// (nothing reads those bytes). Nothing may panic.
func TestCorruptByteSweep(t *testing.T) {
	data := mustBytes(t, testWriter())
	c, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, len(data))
	for i := 0; i < headerSize+len(c.ids)*secEntrySize; i++ {
		covered[i] = true
	}
	for i := range c.ids {
		for j := c.offs[i]; j < c.offs[i]+c.lens[i]; j++ {
			covered[j] = true
		}
	}
	for off := range data {
		mut := bytes.Clone(data)
		mut[off] ^= 0xff
		err := readAll(mut)
		if covered[off] && err == nil {
			t.Fatalf("flip at covered offset %d went undetected", off)
		}
		if !covered[off] && err != nil {
			t.Fatalf("flip at padding offset %d: %v", off, err)
		}
	}
}

// TestTruncationSweep feeds every proper prefix of a container to New:
// each must error, never panic or succeed.
func TestTruncationSweep(t *testing.T) {
	data := mustBytes(t, testWriter())
	for k := 0; k < len(data); k++ {
		if _, err := New(data[:k]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", k, len(data))
		}
	}
}

// TestBadSectionOffsets patches the section table (re-fixing the table
// CRC so parsing reaches the span checks) with unaligned and
// out-of-bounds offsets; New must reject every variant.
func TestBadSectionOffsets(t *testing.T) {
	base := mustBytes(t, testWriter())
	c, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	nsec := len(c.ids)
	patch := func(entry int, field int, v uint64) []byte {
		mut := bytes.Clone(base)
		e := mut[headerSize+entry*secEntrySize:]
		binary.LittleEndian.PutUint64(e[field:field+8], v)
		tab := mut[headerSize : headerSize+nsec*secEntrySize]
		binary.LittleEndian.PutUint32(mut[20:24], crc32.Update(crc32.Checksum(mut[:20], crcTable), crcTable, tab))
		return mut
	}
	cases := map[string][]byte{
		"unaligned offset":  patch(0, 8, c.offs[0]+1),
		"offset past file":  patch(0, 8, uint64(len(base)+8)),
		"length past file":  patch(0, 16, uint64(len(base))),
		"overflowing span":  patch(0, 16, ^uint64(0)-4),
		"offset into table": patch(0, 8, 0),
	}
	for name, mut := range cases {
		if err := readAll(mut); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestFailingWriterSweep cuts the output stream at every byte boundary
// via faultinject.FailingWriter: WriteTo must report an error for every
// cut short of the full length, and succeed exactly at it.
func TestFailingWriterSweep(t *testing.T) {
	w := testWriter()
	data := mustBytes(t, w)
	for n := int64(0); n <= int64(len(data)); n++ {
		var buf bytes.Buffer
		_, err := w.WriteTo(&faultinject.FailingWriter{W: &buf, N: n})
		if n < int64(len(data)) && err == nil {
			t.Fatalf("disk-full at byte %d of %d unreported", n, len(data))
		}
		if n == int64(len(data)) && err != nil {
			t.Fatalf("full-length write failed: %v", err)
		}
	}
}

// TestWriteFileRenameFailure points WriteFile at a path occupied by a
// non-empty directory, so the final rename fails: the error must
// propagate and the directory must survive untouched.
func TestWriteFileRenameFailure(t *testing.T) {
	dir := t.TempDir()
	dest := filepath.Join(dir, "occupied")
	if err := os.MkdirAll(filepath.Join(dest, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(dest, testWriter()); err == nil {
		t.Fatal("WriteFile over a non-empty directory succeeded")
	}
	if st, err := os.Stat(filepath.Join(dest, "child")); err != nil || !st.IsDir() {
		t.Fatalf("destination directory damaged: %v", err)
	}
}

// TestOpenParity checks the mmap path (Open) decodes identically to the
// heap path (New over os.ReadFile), and that torn tails on disk are
// rejected by both.
func TestOpenParity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.bin")
	if err := WriteFile(path, testWriter()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range heap.ids {
		hp, err1 := heap.Section(id)
		mp, err2 := mapped.Section(id)
		if err1 != nil || err2 != nil || !bytes.Equal(hp, mp) {
			t.Fatalf("section %d differs between heap and mmap: %v %v", id, err1, err2)
		}
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}

	// Torn tail: drop the last 8 bytes on disk.
	torn := filepath.Join(dir, "torn.bin")
	if err := faultinject.TornCopy(path, torn, float64(len(data)-8)/float64(len(data))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(torn); err == nil {
		t.Fatal("torn tail accepted by Open")
	}

	// Flipped payload byte on disk: Open succeeds (lazy CRC), the
	// section read fails.
	bad := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.CorruptByte(bad, int64(heap.offs[0])); err != nil {
		t.Fatal(err)
	}
	bc, err := Open(bad)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	if _, err := bc.Section(heap.ids[0]); err == nil {
		t.Fatal("corrupt payload byte went undetected through mmap")
	}
}

func TestOpenTinyAndMissingFiles(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(empty); err == nil {
		t.Fatal("empty file accepted")
	}
	tiny := filepath.Join(dir, "tiny")
	if err := os.WriteFile(tiny, []byte("LNAV"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(tiny); err == nil {
		t.Fatal("tiny file accepted")
	}
	if _, err := Open(filepath.Join(dir, "absent")); err == nil {
		t.Fatal("absent file accepted")
	}
}

func TestMisalignedElementSections(t *testing.T) {
	w := NewWriter(KindOrg, 1)
	w.Add(1, []byte{1, 2, 3})
	w.Add(2, []byte{1, 2, 3, 4})
	data := mustBytes(t, w)
	c, err := New(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Uint32s(1); err == nil {
		t.Fatal("3-byte section decoded as uint32s")
	}
	if _, err := c.Uint64s(2); err == nil {
		t.Fatal("4-byte section decoded as uint64s")
	}
	if _, err := c.Float64s(2); err == nil {
		t.Fatal("4-byte section decoded as float64s")
	}
}

func TestStringTableRoundTrip(t *testing.T) {
	b := NewStringTableBuilder()
	words := []string{"alpha", "", "beta", "alpha", "γreek"}
	refs := make([]uint32, len(words))
	for i, s := range words {
		refs[i] = b.Ref(s)
	}
	if refs[0] != refs[3] {
		t.Fatal("interning failed: identical strings got distinct refs")
	}
	w := NewWriter(KindOrg, 1)
	b.AddTo(w, 1, 2)
	c, err := New(mustBytes(t, w))
	if err != nil {
		t.Fatal(err)
	}
	st, err := ReadStringTable(c, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 4 {
		t.Fatalf("Len = %d, want 4 distinct strings", st.Len())
	}
	for i, s := range words {
		got, err := st.Lookup(refs[i])
		if err != nil || got != s {
			t.Fatalf("Lookup(%d) = %q, %v; want %q", refs[i], got, err, s)
		}
	}
	if _, err := st.Lookup(uint32(st.Len())); err == nil {
		t.Fatal("out-of-range ref accepted")
	}
}

func TestStringTableEmpty(t *testing.T) {
	w := NewWriter(KindOrg, 1)
	NewStringTableBuilder().AddTo(w, 1, 2)
	c, err := New(mustBytes(t, w))
	if err != nil {
		t.Fatal(err)
	}
	st, err := ReadStringTable(c, 1, 2)
	if err != nil || st.Len() != 0 {
		t.Fatalf("empty table: %v, Len=%d", err, st.Len())
	}
}

func TestStringTableRejectsBadBoundaries(t *testing.T) {
	mk := func(offs []uint32, blob []byte) error {
		w := NewWriter(KindOrg, 1)
		w.AddUint32s(1, offs)
		w.Add(2, blob)
		c, err := New(mustBytes(t, w))
		if err != nil {
			return err
		}
		_, err = ReadStringTable(c, 1, 2)
		return err
	}
	cases := map[string]error{
		"no boundaries": mk(nil, []byte("ab")),
		"nonzero first": mk([]uint32{1, 2}, []byte("ab")),
		"short last":    mk([]uint32{0, 1}, []byte("ab")),
		"decreasing":    mk([]uint32{0, 2, 1, 2}, []byte("ab")),
		"past blob":     mk([]uint32{0, 5}, []byte("ab")),
	}
	for name, err := range cases {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// A decoder resolves one string per reference: lookups must allocate
// nothing and outlive the mmap'd container they were read from.
func TestStringTableLookupOutlivesCloseWithoutAllocating(t *testing.T) {
	b := NewStringTableBuilder()
	words := []string{"seattle", "", "portland", "γreek"}
	refs := make([]uint32, len(words))
	for i, s := range words {
		refs[i] = b.Ref(s)
	}
	w := NewWriter(KindLake, 1)
	b.AddTo(w, 1, 2)
	path := filepath.Join(t.TempDir(), "s.bin")
	if err := WriteFile(path, w); err != nil {
		t.Fatal(err)
	}
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Has(1) || !c.Has(2) || c.Has(3) {
		t.Fatalf("Has reports sections 1, 2, 3 as %v, %v, %v; want true, true, false", c.Has(1), c.Has(2), c.Has(3))
	}
	st, err := ReadStringTable(c, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(words))
	if allocs := testing.AllocsPerRun(10, func() {
		for i, r := range refs {
			got[i], _ = st.Lookup(r)
		}
	}); allocs != 0 {
		t.Errorf("Lookup allocates %.0f times per pass, want 0", allocs)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i, s := range words {
		if got[i] != s {
			t.Errorf("after Close, ref %d reads %q, want %q", refs[i], got[i], s)
		}
	}
}
