// Package journal is the append-only commit log of lake mutations: a
// length-prefixed, CRC-checksummed sequence of table add/remove
// batches, modeled on the Zed lake's commit journal. The journal is
// the durability backbone of incremental ingest — the lake and its
// organizations are derived state, replayable from a base snapshot
// plus the journal.
//
// # Format
//
// An 8-byte magic header identifies the file and its format version,
// then zero or more records:
//
//	uint32 LE  payload length
//	uint32 LE  CRC-32 (IEEE) of the payload
//	payload    JSON-encoded Batch
//
// # Torn-tail rule
//
// Appends go through the atomicio funnel (single write + fsync; the
// parent directory is fsynced when the file is created), so a crash
// can tear at most the final record. Recovery scans from the front and
// treats the first invalid record — short frame, impossible length,
// CRC mismatch, or undecodable payload — as the start of a torn tail:
// everything before it is trusted, everything from it on is discarded.
// Open (the writer) truncates the tail away before appending; ReadAll
// (the reader) merely stops there, so a reader tailing a live journal
// never destroys an append that is still in flight.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"lakenav/internal/atomicio"
)

// magic identifies a journal file; the final byte is the format
// version.
var magic = [8]byte{'l', 'a', 'k', 'e', 'j', 'r', 'n', 1}

// maxPayload bounds a single record's payload. A frame claiming more
// is corrupt by definition, which keeps a flipped length byte from
// turning into a gigantic allocation.
const maxPayload = 1 << 26 // 64 MiB

// ErrBadHeader reports that a file is not a journal (or is a journal
// of an unknown format version). A torn header — fewer than 8 bytes
// that are a prefix of the magic — is NOT a bad header: it is a torn
// tail at offset zero, left behind by a crash before the first record.
var ErrBadHeader = errors.New("journal: bad magic header")

// Column is one attribute of an added table: a name and its sampled
// values. The shape mirrors the lake JSON format's attributes.
type Column struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// Table is one table addition.
type Table struct {
	Name    string   `json:"name"`
	Tags    []string `json:"tags"`
	Columns []Column `json:"columns"`
}

// Batch is one committed unit of lake change: tables added and table
// names removed, applied atomically from the organization's point of
// view (one generation per batch).
type Batch struct {
	Add    []Table  `json:"add,omitempty"`
	Remove []string `json:"remove,omitempty"`
}

// Empty reports whether the batch changes nothing.
func (b *Batch) Empty() bool { return len(b.Add) == 0 && len(b.Remove) == 0 }

// encode frames one batch as a complete record: length, CRC, payload.
func encode(b Batch) ([]byte, error) {
	payload, err := json.Marshal(b)
	if err != nil {
		return nil, fmt.Errorf("journal: encode batch: %w", err)
	}
	if len(payload) > maxPayload {
		return nil, fmt.Errorf("journal: batch payload %d bytes exceeds limit %d", len(payload), maxPayload)
	}
	rec := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	copy(rec[8:], payload)
	return rec, nil
}

// Decode scans a journal image from the front, returning every batch
// of the valid prefix and the byte length of that prefix (header
// included). Scanning stops — without error — at the first invalid
// record, per the torn-tail rule. The only error is ErrBadHeader, for
// data that can be proven to not be a journal at all.
func Decode(data []byte) ([]Batch, int64, error) {
	if len(data) < len(magic) {
		// A prefix of the magic is a torn header (crash before the
		// first record landed); anything else is not a journal.
		for i, c := range data {
			if c != magic[i] {
				return nil, 0, ErrBadHeader
			}
		}
		return nil, 0, nil
	}
	for i := range magic {
		if data[i] != magic[i] {
			return nil, 0, ErrBadHeader
		}
	}
	var batches []Batch
	off := int64(len(magic))
	for {
		rest := data[off:]
		if len(rest) < 8 {
			return batches, off, nil // torn frame
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > maxPayload || int64(n) > int64(len(rest)-8) {
			return batches, off, nil // impossible or torn length
		}
		payload := rest[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			return batches, off, nil // corrupt payload
		}
		var b Batch
		if err := json.Unmarshal(payload, &b); err != nil {
			return batches, off, nil // CRC of garbage the writer never produced
		}
		batches = append(batches, b)
		off += 8 + int64(n)
	}
}

// ReadAll reads the valid prefix of the journal at path. It tolerates
// a torn or corrupt tail (stopping there) and never modifies the file,
// so it is safe against a journal that another process is appending
// to. A missing file is an empty journal.
func ReadAll(path string) ([]Batch, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	batches, _, derr := Decode(data)
	if derr != nil {
		return nil, fmt.Errorf("journal: %s: %w", path, derr)
	}
	return batches, nil
}

// Writer is the single appender of a journal file. All appends are
// serialized through it; each is one write syscall followed by an
// fsync, so a committed batch survives power loss and a crash tears at
// most the final record.
type Writer struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	count int
}

// Open opens (creating if absent) the journal at path for appending,
// first recovering it: the valid record prefix is kept, a torn or
// corrupt tail is truncated away, and the batches of the valid prefix
// are returned so the caller can replay them. Recovery of a journal
// that lost even its header (crash before the first append's fsync)
// rewrites the header in place.
func Open(path string) (*Writer, []Batch, error) {
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		data = nil
	case err != nil:
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	batches, valid, derr := Decode(data)
	if derr != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, derr)
	}
	if valid < int64(len(data)) {
		// Torn tail: cut it off and make the cut durable before any
		// new append lands after it.
		if err := os.Truncate(path, valid); err != nil {
			return nil, nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
	}
	f, err := atomicio.OpenAppend(path)
	if err != nil {
		return nil, nil, err
	}
	if valid < int64(len(magic)) {
		// New file, or one whose header was torn: (re)write the header.
		if err := atomicio.Append(f, magic[:]); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
	} else if valid < int64(len(data)) {
		// Persist the truncation of a non-empty valid prefix.
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("journal: sync %s after truncation: %w", path, err)
		}
	}
	return &Writer{f: f, path: path, count: len(batches)}, batches, nil
}

// Append durably commits one batch: when Append returns nil, the
// record is on disk and will be replayed by every future recovery.
func (w *Writer) Append(b Batch) error {
	rec, err := encode(b)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("journal: append to closed writer for %s", w.path)
	}
	// Holding w.mu across the write+fsync IS the contract: the lock
	// serializes appends so records land whole and in order; releasing
	// it mid-write would let a second Append interleave into the record.
	//lakelint:ignore lockhold -- the writer lock serializes the append I/O; holding it across the write is the durability contract
	if err := atomicio.Append(w.f, rec); err != nil {
		return err
	}
	w.count++
	return nil
}

// Close closes the underlying file. The writer is unusable afterwards.
// The lock covers only the handle swap, not the Close syscall: any
// in-flight Append holds the lock until its write completes, so by the
// time Close takes the handle no append can still be using it.
func (w *Writer) Close() error {
	w.mu.Lock()
	f := w.f
	w.f = nil
	w.mu.Unlock()
	if f == nil {
		return nil
	}
	return f.Close()
}
