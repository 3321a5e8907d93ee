package lakenav

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// moduleRow matches the first cell of a DESIGN.md module-inventory row:
// | `internal/core` | ... |.
var moduleRow = regexp.MustCompile("^\\| `([^`]+)`")

// The module inventory in DESIGN.md names every directory that holds
// production Go code, and nothing else: a new package must come with
// its row, and a deleted one must take its row with it. The root
// package is listed by its module name.
func TestDesignPackageTableMatchesTree(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "## 3. Module inventory")
	if !ok {
		t.Fatal("DESIGN.md has no module inventory section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := make(map[string]bool)
	for _, line := range strings.Split(section, "\n") {
		if m := moduleRow.FindStringSubmatch(line); m != nil {
			rows[m[1]] = true
		}
	}

	dirs := make(map[string]bool)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.ToSlash(filepath.Dir(path))
			if dir == "." {
				dir = "lakenav"
			}
			dirs[dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("walk found no Go packages")
	}

	for dir := range dirs {
		if !rows[dir] {
			t.Errorf("package %s has no row in DESIGN.md's module inventory", dir)
		}
	}
	for row := range rows {
		if !dirs[row] {
			t.Errorf("DESIGN.md's module inventory lists %s, which holds no production Go code", row)
		}
	}
}
