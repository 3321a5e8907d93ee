package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"lakenav/internal/faultinject"
)

// testBatches returns a deterministic sequence of n distinct batches.
func testBatches(n int) []Batch {
	out := make([]Batch, n)
	for i := range out {
		out[i] = Batch{
			Add: []Table{{
				Name: fmt.Sprintf("table_%03d", i),
				Tags: []string{"crime", fmt.Sprintf("tag%d", i%3)},
				Columns: []Column{
					{Name: "city", Values: []string{"boston", "chicago", fmt.Sprintf("v%d", i)}},
					{Name: "year", Values: []string{"2019", "2020"}},
				},
			}},
		}
		if i%4 == 3 {
			out[i].Remove = []string{fmt.Sprintf("table_%03d", i-2)}
		}
	}
	return out
}

// writeJournal creates a journal at path holding the given batches.
func writeJournal(t *testing.T, path string, batches []Batch) {
	t.Helper()
	w, recovered, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh journal recovered %d batches", len(recovered))
	}
	for _, b := range batches {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lake.journal")
	batches := testBatches(7)
	writeJournal(t, path, batches)

	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batches) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, batches)
	}

	// Reopening recovers everything and keeps appending.
	w, recovered, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recovered, batches) {
		t.Fatalf("recovery mismatch: got %d batches, want %d", len(recovered), len(batches))
	}
	extra := Batch{Remove: []string{"table_001"}}
	if err := w.Append(extra); err != nil {
		t.Fatal(err)
	}
	if w.count != len(batches)+1 {
		t.Errorf("count %d, want %d", w.count, len(batches)+1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batches)+1 || !reflect.DeepEqual(got[len(got)-1], extra) {
		t.Fatalf("post-append read has %d batches", len(got))
	}
}

func TestReadAllMissingFile(t *testing.T) {
	got, err := ReadAll(filepath.Join(t.TempDir(), "absent.journal"))
	if err != nil || got != nil {
		t.Fatalf("missing journal = (%v, %v), want (nil, nil)", got, err)
	}
}

func TestBadHeaderRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.journal")
	if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(path); !errors.Is(err, ErrBadHeader) {
		t.Errorf("ReadAll on non-journal: %v, want ErrBadHeader", err)
	}
	if _, _, err := Open(path); !errors.Is(err, ErrBadHeader) {
		t.Errorf("Open on non-journal: %v, want ErrBadHeader", err)
	}
}

// Crash-anywhere at the journal layer: for EVERY byte-prefix
// truncation of a journal, recovery must keep exactly the batches
// whose records are complete in that prefix — a prefix of the clean
// sequence, never a reordering, never a phantom.
func TestCrashAnywhereByteBrefixRecovery(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.journal")
	batches := testBatches(5)
	writeJournal(t, clean, batches)
	data, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	for keep := 0; keep <= len(data); keep++ {
		torn := filepath.Join(dir, "torn.journal")
		if err := os.WriteFile(torn, data[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		w, recovered, err := Open(torn)
		if err != nil {
			t.Fatalf("keep=%d: recovery failed: %v", keep, err)
		}
		if len(recovered) > len(batches) {
			t.Fatalf("keep=%d: recovered %d batches from a %d-batch journal", keep, len(recovered), len(batches))
		}
		if !reflect.DeepEqual(recovered, append([]Batch(nil), batches[:len(recovered)]...)) {
			t.Fatalf("keep=%d: recovered batches are not a clean prefix", keep)
		}
		// The journal must be fully healed: appending the missing
		// suffix must reproduce the clean journal byte for byte.
		for _, b := range batches[len(recovered):] {
			if err := w.Append(b); err != nil {
				t.Fatalf("keep=%d: append after recovery: %v", keep, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		healed, err := os.ReadFile(torn)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(healed, data) {
			t.Fatalf("keep=%d: healed journal differs from clean journal (%d vs %d bytes)", keep, len(healed), len(data))
		}
	}
}

// TornCopy: a journal torn at an arbitrary fraction behaves exactly
// like the byte-prefix case — tolerant read, then healing recovery.
func TestTornCopyRecovery(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.journal")
	batches := testBatches(6)
	writeJournal(t, clean, batches)

	for _, fraction := range []float64{0, 0.1, 0.33, 0.5, 0.77, 0.95, 1} {
		torn := filepath.Join(dir, fmt.Sprintf("torn_%v.journal", fraction))
		if err := faultinject.TornCopy(clean, torn, fraction); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll(torn)
		if err != nil {
			t.Fatalf("fraction %v: %v", fraction, err)
		}
		if !reflect.DeepEqual(got, append([]Batch(nil), batches[:len(got)]...)) {
			t.Fatalf("fraction %v: read batches are not a clean prefix", fraction)
		}
		if fraction == 1 && len(got) != len(batches) {
			t.Fatalf("untorn copy lost batches: %d of %d", len(got), len(batches))
		}
	}
}

// TruncateFile: tearing the tail in place, then recovering through
// Open, truncates to the last valid record and keeps the journal
// appendable.
func TestTruncateFileRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lake.journal")
	batches := testBatches(4)
	writeJournal(t, path, batches)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear off the last 3 bytes: the final record is now invalid.
	if _, err := faultinject.TruncateFile(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	w, recovered, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != len(batches)-1 {
		t.Fatalf("recovered %d batches, want %d", len(recovered), len(batches)-1)
	}
	if err := w.Append(batches[len(batches)-1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batches) {
		t.Fatal("journal not healed after in-place truncation")
	}
}

// CorruptByte: a CRC-detectable bit flip inside a record invalidates
// that record and everything after it (the torn-tail rule), but never
// the records before it.
func TestCorruptByteStopsAtCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lake.journal")
	batches := testBatches(5)
	writeJournal(t, path, batches)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the start of the third record by walking the frames.
	off := int64(8) // header
	for i := 0; i < 2; i++ {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		off += 8 + n
	}
	if err := faultinject.CorruptByte(path, off+8+1); err != nil { // a payload byte of record 2
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d batches past a corrupt record, want 2", len(got))
	}
	if !reflect.DeepEqual(got, append([]Batch(nil), batches[:2]...)) {
		t.Fatal("surviving batches are not the clean prefix")
	}
	// And Open heals it to those 2.
	w, recovered, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(recovered) != 2 {
		t.Fatalf("recovered %d batches, want 2", len(recovered))
	}
}

// FailingWriter: a record torn mid-frame by a disk that fills (ENOSPC
// through the os.File surface) leaves a prefix that decodes to exactly
// the records fully written before the failure.
func TestFailingWriterTornRecordIgnored(t *testing.T) {
	batches := testBatches(3)
	var clean bytes.Buffer
	clean.Write(magic[:])
	for _, b := range batches {
		rec, err := encode(b)
		if err != nil {
			t.Fatal(err)
		}
		clean.Write(rec)
	}
	full := clean.Len()
	for budget := 0; budget <= full; budget += 7 {
		var torn bytes.Buffer
		fw := &faultinject.FailingWriter{W: &torn, N: int64(budget)}
		_, _ = fw.Write(clean.Bytes())
		got, valid, err := Decode(torn.Bytes())
		if err != nil && budget >= len(magic) {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if err == nil {
			if valid > int64(torn.Len()) {
				t.Fatalf("budget %d: valid prefix %d beyond data %d", budget, valid, torn.Len())
			}
			if !reflect.DeepEqual(got, append([]Batch(nil), batches[:len(got)]...)) {
				t.Fatalf("budget %d: decoded batches are not a clean prefix", budget)
			}
		}
	}
}

// Concurrent append and replay: one writer, many tailing readers. The
// race hammer pins down that (a) the Writer serializes appends, (b) a
// tolerant reader of a live journal only ever sees a clean prefix.
func TestConcurrentAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lake.journal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	batches := testBatches(40)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := ReadAll(path)
				if err != nil {
					t.Errorf("tailing read: %v", err)
					return
				}
				if !reflect.DeepEqual(got, append([]Batch(nil), batches[:len(got)]...)) {
					t.Error("tailing read saw a non-prefix")
					return
				}
			}
		}()
	}
	// One in-order appender (the Writer contract) plus a goroutine
	// hammering Count, so the race detector sees the mutex carry both
	// the file handle and the counter.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w.mu.Lock()
			c := w.count
			w.mu.Unlock()
			if c < 0 || c > len(batches) {
				t.Errorf("count %d out of range", c)
				return
			}
		}
	}()
	for _, b := range batches {
		if err := w.Append(b); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batches) {
		t.Fatalf("final journal has %d batches, want %d", len(got), len(batches))
	}
}

// Appends through two Writer handles interleaved with recovery must
// not corrupt the log (the Writer is the single appender by contract,
// but a crashed-and-restarted process reopening the file is routine).
func TestReopenCycles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lake.journal")
	batches := testBatches(9)
	for i, b := range batches {
		w, recovered, err := Open(path)
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if len(recovered) != i {
			t.Fatalf("cycle %d: recovered %d batches", i, len(recovered))
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batches) {
		t.Fatal("reopen cycles lost or reordered batches")
	}
}
