// Package atomicio provides crash-safe file writes: content lands in a
// temp file in the destination directory, is fsynced, and is renamed
// over the target, so readers never observe a torn or truncated file.
// It is the single durability funnel of the repository: checkpoint,
// lake, embedding, and journal persistence all write through it (the
// lakelint atomicfunnel check enforces this), so the fsync ordering
// rules live in exactly one place.
package atomicio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// syncDir fsyncs a directory so a preceding rename or file creation in
// it survives power loss. It is a package variable so tests can inject
// a failing directory sync and pin down that WriteFile propagates it.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		// Some filesystems (and some platforms) reject fsync on a
		// directory handle; the rename itself is still atomic there, so
		// an "unsupported" error is not a durability failure.
		if errors.Is(serr, syscall.EINVAL) || errors.Is(serr, syscall.ENOTSUP) {
			return nil
		}
		return serr
	}
	return cerr
}

// WriteFile atomically replaces path with the bytes produced by write.
// The temp file is created in path's directory (rename must not cross
// filesystems) and removed on any failure. The file is fsynced before
// the rename and the directory is fsynced after it, so a crash leaves
// either the old content or the new content, never a mixture — and the
// rename itself is durable, not just atomic.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: create temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			// Already failing; the close/remove errors would only mask
			// the root cause.
			_ = tmp.Close()
			_ = os.Remove(tmpName)
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("atomicio: write %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: sync %s: %w", path, err)
	}
	// CreateTemp uses 0600; match the mode os.Create would have given.
	if err = tmp.Chmod(0o644); err != nil {
		return fmt.Errorf("atomicio: chmod %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: close %s: %w", path, err)
	}
	if err = os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("atomicio: rename %s: %w", path, err)
	}
	if err = syncDir(dir); err != nil {
		return fmt.Errorf("atomicio: sync dir for %s: %w", path, err)
	}
	return nil
}

// OpenAppend opens path for appending, creating it if absent. When the
// open creates the file, the parent directory is fsynced so the new
// directory entry survives power loss before any record is trusted to
// it. The returned file is positioned at the end.
func OpenAppend(path string) (*os.File, error) {
	_, statErr := os.Stat(path)
	created := os.IsNotExist(statErr)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("atomicio: open append %s: %w", path, err)
	}
	if created {
		if err := syncDir(filepath.Dir(path)); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("atomicio: sync dir for %s: %w", path, err)
		}
	}
	return f, nil
}

// Append writes p to f in a single Write call and fsyncs the file, so
// the bytes are durable when Append returns. The single write matters
// for appenders whose readers tolerate only one torn tail: the kernel
// may still tear the write on crash, but a concurrent reader of a live
// file never observes an interleaving of two Append payloads.
func Append(f *os.File, p []byte) error {
	n, err := f.Write(p)
	if err != nil {
		return fmt.Errorf("atomicio: append %s: %w", f.Name(), err)
	}
	if n != len(p) {
		return fmt.Errorf("atomicio: append %s: short write (%d of %d bytes)", f.Name(), n, len(p))
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("atomicio: append sync %s: %w", f.Name(), err)
	}
	return nil
}
