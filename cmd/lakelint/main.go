package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable CLI body. Exit codes: 0 clean, 1 findings,
// 2 usage or load failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lakelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.String("json", "", "write findings as JSON to this file ('-' for stdout)")
	checksFlag := fs.String("checks", "", "comma-separated checks to run (default: all)")
	list := fs.Bool("list", false, "list the invariant checks and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: lakelint [flags] [module-dir]\n\n"+
			"Runs the repository's invariant checks over every package of the\n"+
			"module rooted at module-dir (default \".\"). See DESIGN.md §10 and §15.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, c := range AllChecks {
			fmt.Fprintf(stdout, "%-12s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	dir := "."
	switch fs.NArg() {
	case 0:
	case 1:
		dir = fs.Arg(0)
	default:
		fs.Usage()
		return 2
	}

	var names []string
	if *checksFlag != "" {
		names = strings.Split(*checksFlag, ",")
	}

	mod, err := LoadModule(dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	findings, err := Analyze(mod, Options{Checks: names})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// With -json -, stdout carries the report; keep it machine-
	// parseable by routing the human-readable lines to stderr.
	lines := stdout
	if *jsonOut == "-" {
		lines = stderr
	}
	for _, f := range findings {
		fmt.Fprintln(lines, f)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, stdout, mod, findings); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "lakelint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// report is the -json document shape, a stable CI artifact.
type report struct {
	Module   string    `json:"module"`
	Checks   []string  `json:"checks"`
	Findings []Finding `json:"findings"`
}

func writeJSON(path string, stdout io.Writer, mod *Module, findings []Finding) error {
	names := make([]string, len(AllChecks))
	for i, c := range AllChecks {
		names[i] = c.Name
	}
	if findings == nil {
		findings = []Finding{} // JSON [] rather than null
	}
	doc := report{Module: mod.Path, Checks: names, Findings: findings}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
