package samurai

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// inventoryRow matches a DESIGN.md §3 row and captures its directory.
var inventoryRow = regexp.MustCompile("^\\| [^|]+ \\| `([^`]+)` \\|")

// TestDesignInventory keeps DESIGN.md §3 a map of the tree as it is:
// every directory with Go files under internal/ and cmd/ has a row, and
// every row names a directory that holds Go files.
func TestDesignInventory(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	start := strings.Index(doc, "\n## 3. ")
	end := strings.Index(doc, "\n## 4. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §3 followed by §4")
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(doc[start:end], "\n") {
		if m := inventoryRow.FindStringSubmatch(line); m != nil {
			if rows[m[1]] {
				t.Errorf("§3 lists %s twice", m[1])
			}
			rows[m[1]] = true
		}
	}
	hasGo := func(dir string) bool {
		matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
		return err == nil && len(matches) > 0
	}
	for dir := range rows {
		if !hasGo(dir) {
			t.Errorf("§3 row %s names no directory with Go files", dir)
		}
	}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() && hasGo(path) && !rows[filepath.ToSlash(path)] {
				t.Errorf("%s has Go files but no §3 row", path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
