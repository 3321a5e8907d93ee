package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"lakenav"
	"lakenav/internal/synth"
)

// Every workload runs on the paper's Fig 2(b) setting: a Socrata-like
// lake at synth.DefaultSocrataConfig scale (750 tables) organized into
// 10 dimensions with the default config. Each dimension's local search
// gets a fixed budget of searchBudget proposals. Unbounded, the searches
// stopped at seed-dependent plateaus, 4.3k to 7k proposals in all, and
// build time varied from 2.4 to 4.5 s with them; with a fixed budget the
// time of a build measures the code, not the length of a seeded search.
const (
	dimensions   = 10
	searchBudget = 150
)

// lakeInput is one generated lake: the file, and the value vocabulary
// that queries draw words from.
type lakeInput struct {
	path  string
	vocab []string
}

// makeLake generates lake j of the seed's sequence and writes it to path.
func makeLake(path string, format lakenav.Format, seed int64, j int) (*lakeInput, error) {
	cfg := synth.DefaultSocrataConfig()
	cfg.Seed = int64(splitmix(uint64(seed)<<16|uint64(j)) >> 1)
	soc, err := synth.GenerateSocrata(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate lake: %w", err)
	}
	in := &lakeInput{path: path}
	l := lakenav.NewLake()
	words := make(map[string]bool)
	for _, t := range soc.Lake.Tables {
		cols := make([]lakenav.Column, len(t.Attrs))
		for c, id := range t.Attrs {
			a := soc.Lake.Attr(id)
			cols[c] = lakenav.Column{Name: a.Name, Values: a.Values}
			if a.Text {
				for _, v := range a.Values {
					words[v] = true
				}
			}
		}
		l.AddTable(t.Name, t.Tags, cols...)
	}
	for w := range words {
		in.vocab = append(in.vocab, w)
	}
	sort.Strings(in.vocab)
	if err := l.Save(path, format); err != nil {
		return nil, err
	}
	return in, nil
}

func orgConfig(seed int64) lakenav.Config {
	cfg := lakenav.DefaultConfig()
	cfg.Dimensions = dimensions
	cfg.Seed = seed
	cfg.MaxIterations = searchBudget
	return cfg
}

// organize is the construction the build workload times: load the lake
// file and build its organization through the public API.
func organize(path string, seed int64, progress func(lakenav.ProgressEvent)) (*lakenav.Lake, *lakenav.Organization, error) {
	l, err := lakenav.LoadJSON(path)
	if err != nil {
		return nil, nil, err
	}
	cfg := orgConfig(seed)
	cfg.Progress = progress
	org, err := lakenav.OrganizeContext(context.Background(), l, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("organize %s: %w", path, err)
	}
	return l, org, nil
}

// validate checks a freshly built organization: complete, with a sane
// objective, and saved as an org.bin that decodes (decoding validates
// the structure) to an organization with the same objective. Decoding
// re-derives nothing, but a built organization is not in canonical
// form, so only the objective, not the fingerprint, must survive.
func validate(l *lakenav.Lake, org *lakenav.Organization, binPath string) error {
	if org.Truncated() {
		return fmt.Errorf("organization truncated")
	}
	eff := org.Effectiveness()
	if !(eff > 0 && eff <= 1) {
		return fmt.Errorf("effectiveness %v outside (0, 1]", eff)
	}
	if err := org.Save(binPath, lakenav.FormatBin); err != nil {
		return err
	}
	back, err := lakenav.LoadOrganization(l, binPath)
	if err != nil {
		return err
	}
	if got := back.Effectiveness(); math.Abs(got-eff) > 1e-9*eff {
		return fmt.Errorf("org.bin decodes to effectiveness %v, built %v", got, eff)
	}
	return nil
}

// rootChildren returns each dimension's number of root children, the
// positions suggest requests may start from.
func rootChildren(org *lakenav.Organization) []int {
	roots := make([]int, org.Dimensions())
	nav := org.Navigator()
	for d := range roots {
		nav.Reset(d)
		roots[d] = len(nav.Children())
	}
	return roots
}
