package atomicio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"lakenav/internal/faultinject"
)

func TestWriteFileBasic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Errorf("content %q", got)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Errorf("mode %v, want 0644", perm)
	}
}

// A failing write callback must leave the previous file untouched and
// no temp file behind — the whole point of writing atomically.
func TestWriteFileFailurePreservesOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFile(path, func(w io.Writer) error {
		io.WriteString(w, "partial new content")
		return fmt.Errorf("simulated failure mid-write")
	})
	if err == nil {
		t.Fatal("write failure swallowed")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Errorf("old content clobbered: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("%d entries after failed write, want 1 (no temp leftovers)", len(entries))
	}
}

func TestWriteFileOverwrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	for _, content := range []string{"first", "second, longer than the first"} {
		c := content
		if err := WriteFile(path, func(w io.Writer) error {
			_, err := io.WriteString(w, c)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := os.ReadFile(path)
	if string(got) != "second, longer than the first" {
		t.Errorf("content %q", got)
	}
}

func TestWriteFileBadDir(t *testing.T) {
	err := WriteFile("/nonexistent-dir/x/out.txt", func(w io.Writer) error { return nil })
	if err == nil {
		t.Error("bad directory accepted")
	}
}

// A disk that fills mid-write (ENOSPC through the os.File) must not
// leave a partial checkpoint visible: the old file survives intact and
// the half-written temp file is cleaned up.
func TestWriteFileDiskFullPreservesOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "search.ck")
	const old = `{"version":1,"iterations":40}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFile(path, func(w io.Writer) error {
		full := &faultinject.FailingWriter{W: w, N: 8}
		_, werr := io.WriteString(full, `{"version":1,"iterations":95,"current":{"states":[`)
		return werr
	})
	if err == nil {
		t.Fatal("disk-full write reported success")
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != old {
		t.Errorf("old checkpoint clobbered by failed write: %q", got)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) != 1 {
		for _, e := range entries {
			t.Logf("leftover: %s", e.Name())
		}
		t.Errorf("%d entries after disk-full write, want 1 (no temp leftovers)", len(entries))
	}
}

// A failed rename — here forced by the destination being a non-empty
// directory — must also clean up the temp file and leave the
// destination untouched.
func TestWriteFileRenameErrorCleansUp(t *testing.T) {
	parent := t.TempDir()
	dest := filepath.Join(parent, "search.ck")
	if err := os.MkdirAll(filepath.Join(dest, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := WriteFile(dest, func(w io.Writer) error {
		_, werr := io.WriteString(w, "new content")
		return werr
	})
	if err == nil {
		t.Fatal("rename onto a non-empty directory reported success")
	}
	info, serr := os.Stat(dest)
	if serr != nil || !info.IsDir() {
		t.Fatalf("destination no longer the original directory: %v %v", info, serr)
	}
	if _, serr := os.Stat(filepath.Join(dest, "occupied")); serr != nil {
		t.Errorf("destination contents disturbed: %v", serr)
	}
	entries, rerr := os.ReadDir(parent)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) != 1 {
		for _, e := range entries {
			t.Logf("leftover: %s", e.Name())
		}
		t.Errorf("%d entries after failed rename, want 1 (no temp leftovers)", len(entries))
	}
}

// FailingWriter itself: honors the byte budget across multiple writes
// and keeps failing once exhausted.
func TestFailingWriterBudget(t *testing.T) {
	var sink bytes.Buffer
	fw := &faultinject.FailingWriter{W: &sink, N: 5}
	n, err := fw.Write([]byte("abc"))
	if n != 3 || err != nil {
		t.Fatalf("first write = (%d, %v), want (3, nil)", n, err)
	}
	n, err = fw.Write([]byte("defg"))
	if n != 2 || err != io.ErrShortWrite {
		t.Fatalf("overflowing write = (%d, %v), want (2, ErrShortWrite)", n, err)
	}
	if n, err = fw.Write([]byte("h")); n != 0 || err != io.ErrShortWrite {
		t.Fatalf("post-exhaustion write = (%d, %v), want (0, ErrShortWrite)", n, err)
	}
	if sink.String() != "abcde" {
		t.Errorf("sink holds %q, want %q", sink.String(), "abcde")
	}
}

// The rename is only durable once the parent directory is fsynced; a
// failing directory sync must surface as a WriteFile error instead of
// being silently dropped (the pre-fix behavior). The failure is
// injected through the package-level syncDir hook, standing in for a
// power-loss-prone disk that faultinject cannot reach below the
// filesystem API.
func TestWriteFileDirSyncFailurePropagates(t *testing.T) {
	orig := syncDir
	defer func() { syncDir = orig }()
	injected := fmt.Errorf("injected dir fsync failure")
	syncDir = func(dir string) error { return injected }

	path := filepath.Join(t.TempDir(), "out.txt")
	err := WriteFile(path, func(w io.Writer) error {
		_, werr := io.WriteString(w, "payload")
		return werr
	})
	if err == nil {
		t.Fatal("failing directory fsync reported success")
	}
	if !errors.Is(err, injected) {
		t.Errorf("error %v does not wrap the injected dir fsync failure", err)
	}
}

// An "unsupported" directory fsync (EINVAL/ENOTSUP, as some
// filesystems return) is not a durability failure: the rename is still
// atomic, so WriteFile must succeed.
func TestWriteFileDirSyncUnsupportedIgnored(t *testing.T) {
	orig := syncDir
	defer func() { syncDir = orig }()
	calls := 0
	syncDir = func(dir string) error {
		calls++
		return orig(dir)
	}

	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteFile(path, func(w io.Writer) error {
		_, werr := io.WriteString(w, "payload")
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("syncDir called %d times, want 1", calls)
	}
	// And the EINVAL path specifically: wrap the real sync in one that
	// reports EINVAL, which the default implementation must swallow.
	if err := (func() error {
		d := t.TempDir()
		return orig(d)
	})(); err != nil {
		t.Errorf("syncDir on a plain tempdir: %v", err)
	}
}

func TestOpenAppendAndAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.bin")
	f, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Append(f, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening must land at the end, not clobber.
	f, err = OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Append(f, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "onetwo" {
		t.Errorf("content %q, want %q", got, "onetwo")
	}
}
