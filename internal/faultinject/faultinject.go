// Package faultinject provides deterministic fault injection for
// robustness tests: torn and truncated files, readers that stall or
// fail mid-stream, and per-iteration hooks that cancel a search at a
// chosen iteration. The hooks take the iteration count, not a core
// type: core's own tests import this package, so it cannot import core,
// and a test wraps a hook in the search's Progress callback. Production
// code never imports it; tests across the persistence, core, and server
// layers share it so every failure mode is simulated the same way
// everywhere.
package faultinject

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"
)

// CancelAtIteration returns an iteration hook that cancels at
// iteration k, simulating a deploy or crash landing mid-search.
//
//lakelint:ignore deadexport -- fault-injection helper for tests by design; production never imports this package
func CancelAtIteration(cancel context.CancelFunc, k int) func(int) {
	return func(iteration int) {
		if iteration >= k {
			cancel()
		}
	}
}

// CancelWhen returns an iteration hook that cancels as soon as cond
// reports true, for faults keyed on observable side effects (e.g. "a
// checkpoint file exists") rather than iteration counts.
//
//lakelint:ignore deadexport -- fault-injection helper for tests by design; production never imports this package
func CancelWhen(cancel context.CancelFunc, cond func() bool) func(int) {
	return func(int) {
		if cond() {
			cancel()
		}
	}
}

// TruncateFile tears a file down to its first keep bytes in place,
// simulating a crash mid-write on a non-atomic writer. It returns the
// number of bytes removed.
//
//lakelint:ignore deadexport -- fault-injection helper for tests by design; production never imports this package
func TruncateFile(path string, keep int64) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("faultinject: truncate %s: %w", path, err)
	}
	if keep < 0 {
		keep = 0
	}
	if keep > info.Size() {
		return 0, fmt.Errorf("faultinject: truncate %s: keep %d beyond size %d", path, keep, info.Size())
	}
	if err := os.Truncate(path, keep); err != nil {
		return 0, fmt.Errorf("faultinject: truncate %s: %w", path, err)
	}
	return info.Size() - keep, nil
}

// TornCopy writes the first fraction (0..1) of src's bytes to dst — a
// torn file as a crashed copy or partial download would leave it.
//
//lakelint:ignore deadexport -- fault-injection helper for tests by design; production never imports this package
func TornCopy(src, dst string, fraction float64) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return fmt.Errorf("faultinject: torn copy: %w", err)
	}
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	n := int(float64(len(data)) * fraction)
	if err := os.WriteFile(dst, data[:n], 0o644); err != nil {
		return fmt.Errorf("faultinject: torn copy: %w", err)
	}
	return nil
}

// CorruptByte flips every bit of the byte at offset off in place,
// simulating silent media corruption (the kind a CRC exists to catch)
// rather than a torn write.
//
//lakelint:ignore deadexport -- fault-injection helper for tests by design; production never imports this package
func CorruptByte(path string, off int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("faultinject: corrupt %s: %w", path, err)
	}
	if off < 0 || off >= int64(len(data)) {
		return fmt.Errorf("faultinject: corrupt %s: offset %d beyond size %d", path, off, len(data))
	}
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("faultinject: corrupt %s: %w", path, err)
	}
	return nil
}

// SlowReader delays every Read by Delay, simulating a saturated or
// failing disk / network volume.
//
//lakelint:ignore deadexport -- fault-injection helper for tests by design; production never imports this package
type SlowReader struct {
	R     io.Reader
	Delay time.Duration
}

// Read implements io.Reader.
func (s *SlowReader) Read(p []byte) (int, error) {
	time.Sleep(s.Delay)
	return s.R.Read(p)
}

// FailingReader reads normally for the first N bytes and then returns
// Err (io.ErrUnexpectedEOF when nil), simulating an I/O error
// mid-stream.
//
//lakelint:ignore deadexport -- fault-injection helper for tests by design; production never imports this package
type FailingReader struct {
	R    io.Reader
	N    int64
	Err  error
	read int64
}

// Read implements io.Reader.
func (f *FailingReader) Read(p []byte) (int, error) {
	if f.read >= f.N {
		return 0, f.err()
	}
	if max := f.N - f.read; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := f.R.Read(p)
	f.read += int64(n)
	if err == nil && f.read >= f.N {
		err = f.err()
	}
	return n, err
}

func (f *FailingReader) err() error {
	if f.Err != nil {
		return f.Err
	}
	return io.ErrUnexpectedEOF
}

// FailingWriter accepts the first N bytes and then returns Err
// (io.ErrShortWrite when nil) on every subsequent write, simulating a
// disk that fills mid-write. The short write reports how many of the
// offending call's bytes still fit, the way a real ENOSPC surfaces
// through an os.File.
//
//lakelint:ignore deadexport -- fault-injection helper for tests by design; production never imports this package
type FailingWriter struct {
	W       io.Writer
	N       int64
	Err     error
	written int64
}

// Write implements io.Writer.
func (f *FailingWriter) Write(p []byte) (int, error) {
	if f.written >= f.N {
		return 0, f.werr()
	}
	if max := f.N - f.written; int64(len(p)) > max {
		n, err := f.W.Write(p[:max])
		f.written += int64(n)
		if err == nil {
			err = f.werr()
		}
		return n, err
	}
	n, err := f.W.Write(p)
	f.written += int64(n)
	return n, err
}

func (f *FailingWriter) werr() error {
	if f.Err != nil {
		return f.Err
	}
	return io.ErrShortWrite
}
