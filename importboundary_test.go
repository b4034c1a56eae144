package harassrepro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// boundaryRoots are the packages that score, serve and manage models.
// None may depend on the paper pipeline: a platform deploys them with
// the released model directory alone.
var boundaryRoots = []string{"internal/detector", "internal/serve", "internal/lifecycle", "internal/registry"}

// detectorForbidden are the corpus generator's packages. The detector
// is the serving artifact, so it must not link them either.
var detectorForbidden = []string{"internal/corpus", "internal/synth", "internal/gender"}

// TestScoringStackAvoidsPipeline walks the in-module imports of the
// non-test Go files of each boundary root, transitively, and fails if
// any of them reaches internal/core, or internal/detector reaches a
// package of detectorForbidden.
func TestScoringStackAvoidsPipeline(t *testing.T) {
	const module = "harassrepro/"
	imports := map[string][]string{} // package dir → in-module imports
	load := func(dir string) []string {
		if deps, ok := imports[dir]; ok {
			return deps
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Error(err)
			return nil
		}
		fset := token.NewFileSet()
		var deps []string
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasPrefix(path, module+"internal/") {
					deps = append(deps, strings.TrimPrefix(path, module))
				}
			}
		}
		imports[dir] = deps
		return deps
	}
	for _, root := range boundaryRoots {
		// via records the package each reached package was first
		// imported from, to print the import chain.
		via := map[string]string{root: ""}
		queue := []string{root}
		for len(queue) > 0 {
			pkg := queue[0]
			queue = queue[1:]
			for _, dep := range load(pkg) {
				if _, seen := via[dep]; seen {
					continue
				}
				via[dep] = pkg
				queue = append(queue, dep)
			}
		}
		forbidden := []string{"internal/core"}
		if root == "internal/detector" {
			forbidden = append(forbidden, detectorForbidden...)
		}
		for _, f := range forbidden {
			if _, reached := via[f]; reached {
				chain := f
				for p := via[f]; p != ""; p = via[p] {
					chain = p + " → " + chain
				}
				t.Errorf("%s imports %s: %s", root, f, chain)
			}
		}
	}
}
