package hgpart

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportLayer pins the one import layer: the commands are built on the
// internal packages, never on this package, and the library's documented
// users (examples/ and example_test.go) see only this package, never the
// internal packages behind it.
func TestImportLayer(t *testing.T) {
	check := func(root string, skipTests bool, forbidden func(string) bool) {
		t.Helper()
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir // fixtures, not commands
			}
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") ||
				(skipTests && strings.HasSuffix(path, "_test.go")) {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); forbidden(p) {
					t.Errorf("%s imports %s", path, p)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	check("cmd", true, func(p string) bool { return p == "hgpart" })
	internal := func(p string) bool { return strings.HasPrefix(p, "hgpart/internal/") }
	check("examples", false, internal)
	check("example_test.go", false, internal)
}
