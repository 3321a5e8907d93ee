// Package atomicio replicates the real funnel package: it is the one
// place allowed to call the raw os write APIs.
package atomicio

import "os"

// WriteFile is the funnel entry point (the real one stages through a
// temp file and fsyncs; the fixture only needs the call shapes).
//
//lakelint:ignore deadexport -- fixture replica of the funnel; only its call shapes matter
func WriteFile(path string, data []byte) error {
	tmp, err := os.Create(path + ".tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// OpenAppend is the append-side funnel entry point.
//
//lakelint:ignore deadexport -- fixture replica of the funnel; only its call shapes matter
func OpenAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
}
