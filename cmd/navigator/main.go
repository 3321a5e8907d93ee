// Command navigator is an interactive terminal navigation session over
// an organization — the command-line analogue of the user-study
// prototype (Sec 4.4). It reads a lake, builds an organization, and
// lets the user walk the DAG:
//
//	navigator -lake lake.json [-dims N]
//
// Commands at the prompt:
//
//	<number>   descend into that child
//	..         backtrack one level
//	/          jump back to the root
//	d <n>      switch to dimension n
//	? <query>  rank the current choices against a query
//	q          quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"lakenav"
)

func main() {
	path := flag.String("lake", "", "lake path (json or bin)")
	dims := flag.Int("dims", 1, "organization dimensions")
	flag.Parse()
	if *path == "" {
		fmt.Fprintln(os.Stderr, "navigator: missing -lake")
		os.Exit(2)
	}
	l, err := lakenav.LoadJSON(*path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "navigator:", err)
		os.Exit(1)
	}
	cfg := lakenav.DefaultConfig()
	cfg.Dimensions = *dims
	fmt.Printf("organizing %d tables…\n", l.Tables())
	org, err := lakenav.Organize(l, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "navigator:", err)
		os.Exit(1)
	}
	run(org, os.Stdin, os.Stdout)
}

// run drives the session; split from main for testability.
func run(org *lakenav.Organization, in io.Reader, out io.Writer) {
	nav := org.Navigator()
	scanner := bufio.NewScanner(in)
	render(nav, out)
	for {
		fmt.Fprint(out, "> ")
		if !scanner.Scan() {
			return
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "q" || line == "quit":
			return
		case line == "..":
			if !nav.Up() {
				fmt.Fprintln(out, "already at the root")
			}
		case line == "/":
			nav.Reset(nav.Dimension())
		case strings.HasPrefix(line, "d "):
			n, err := strconv.Atoi(strings.TrimSpace(line[2:]))
			if err != nil || n < 0 || n >= org.Dimensions() {
				fmt.Fprintf(out, "dimensions: 0..%d\n", org.Dimensions()-1)
				continue
			}
			nav.Reset(n)
		case strings.HasPrefix(line, "? "):
			query := strings.TrimSpace(line[2:])
			for _, s := range nav.Suggest(query) {
				fmt.Fprintf(out, "  %5.1f%%  [%d] %s\n", 100*s.Probability, s.Index, s.Label)
			}
			continue
		case line == "":
			continue
		default:
			i, err := strconv.Atoi(line)
			if err != nil || !nav.Descend(i) {
				fmt.Fprintln(out, "enter a child number, .., /, d <n>, ? <query>, or q")
				continue
			}
		}
		render(nav, out)
	}
}

func render(nav *lakenav.Navigator, out io.Writer) {
	here := nav.Here()
	fmt.Fprintf(out, "\n[dim %d, depth %d] %s (%d attributes)\n",
		nav.Dimension(), nav.Depth(), here.Label, here.Attrs)
	if here.IsLeaf {
		fmt.Fprintf(out, "  leaf: attribute of table %q — navigation complete\n", here.Table)
		return
	}
	for i, c := range nav.Children() {
		marker := " "
		if c.IsLeaf {
			marker = "•"
		}
		fmt.Fprintf(out, "  [%d]%s %s (%d)\n", i, marker, c.Label, c.Attrs)
	}
}
