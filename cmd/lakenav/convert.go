package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"lakenav"
)

// cmdConvert re-encodes a lake file between the JSON and binary
// container formats (input sniffed from the file magic, so either
// direction is the same invocation with a different -to), or re-saves
// a binary organization as bin or as a JSON export. Converting an
// organization needs its lake (-lake): the binary format stores the
// derived topic state verbatim, which only exists attached to a lake.
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	kind := fs.String("kind", "org", "what the input file holds: org or lake")
	in := fs.String("in", "", "input path (a lake in json or bin, sniffed from magic; an organization in bin)")
	out := fs.String("out", "", "output path")
	to := fs.String("to", "bin", "output format: json or bin")
	lakePath := fs.String("lake", "", "lake path (required for -kind org)")
	_ = fs.Parse(args) // ExitOnError: Parse exits on bad flags
	if *in == "" || *out == "" {
		return fmt.Errorf("missing -in or -out")
	}
	format, err := lakenav.ParseFormat(*to)
	if err != nil {
		return err
	}
	switch *kind {
	case "lake":
		l, err := lakenav.LoadJSON(*in)
		if err != nil {
			return err
		}
		if err := l.Save(*out, format); err != nil {
			return err
		}
	case "org":
		l, err := loadLake(*lakePath)
		if err != nil {
			return err
		}
		org, err := lakenav.LoadOrganization(l, *in)
		if err != nil {
			return err
		}
		if err := org.Save(*out, format); err != nil {
			return err
		}
		fmt.Printf("fingerprint %s\n", org.Fingerprint())
	default:
		return fmt.Errorf("unknown kind %q (want org or lake)", *kind)
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

// cmdOrgHash times organization cold-start and prints one JSON line:
// the best-of-N load latency, the bytes on disk, and the semantic
// fingerprint. Two organizations with equal hashes navigate and
// optimize identically.
func cmdOrgHash(args []string) error {
	fs := flag.NewFlagSet("orghash", flag.ExitOnError)
	lakePath := fs.String("lake", "", "lake path")
	orgPath := fs.String("org", "", "organization path (bin)")
	repeat := fs.Int("repeat", 3, "timed load repetitions (the minimum is reported)")
	_ = fs.Parse(args) // ExitOnError: Parse exits on bad flags
	if *orgPath == "" {
		return fmt.Errorf("missing -org")
	}
	l, err := loadLake(*lakePath)
	if err != nil {
		return err
	}
	// Untimed warm-up load: computes the lake's topic vectors and faults
	// the file into the page cache, so the timed loads measure
	// decoding, not disk or embedding.
	org, err := lakenav.LoadOrganization(l, *orgPath)
	if err != nil {
		return err
	}
	if *repeat < 1 {
		*repeat = 1
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < *repeat; i++ {
		start := time.Now()
		if org, err = lakenav.LoadOrganization(l, *orgPath); err != nil {
			return err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	st, err := os.Stat(*orgPath)
	if err != nil {
		return err
	}
	out := struct {
		Path   string  `json:"path"`
		LoadMS float64 `json:"load_ms"`
		Bytes  int64   `json:"bytes"`
		Hash   string  `json:"hash"`
	}{
		Path:   *orgPath,
		LoadMS: float64(best.Microseconds()) / 1000,
		Bytes:  st.Size(),
		Hash:   org.Fingerprint(),
	}
	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(out)
}
