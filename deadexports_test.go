package harassrepro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportAllow names methods that satisfy a standard-library
// interface and so are called through it, never by name.
var deadExportAllow = map[string]bool{
	"MarshalJSON":   true,
	"UnmarshalJSON": true,
	"String":        true,
	"Error":         true,
	"Unwrap":        true,
}

// TestNoDeadExports fails when an exported function or method declared
// under internal/ is referenced nowhere in non-test Go outside its own
// declaration. Callers are counted by name across the whole tree,
// bench/, cmd/ and examples/ included, so the check can miss a dead
// export that shares a name with a live one but never flags a live one.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		name, pos  string
		start, end token.Pos
	}
	var decls []decl
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || deadExportAllow[fn.Name.Name] {
				continue
			}
			decls = append(decls, decl{fn.Name.Name, fset.Position(fn.Pos()).String(), fn.Pos(), fn.End()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	uses := map[string][]token.Pos{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
	}
	var dead []string
	for _, d := range decls {
		live := false
		for _, p := range uses[d.name] {
			if p < d.start || p >= d.end {
				live = true
				break
			}
		}
		if !live {
			dead = append(dead, d.pos+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported with no non-test caller: %s", d)
	}
}
