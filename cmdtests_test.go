package harassrepro

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryCommandHasTests fails when a main package under cmd/ has no
// _test.go file: each command is a surface users run, and only a test
// that builds and runs it keeps its flags, output and exit codes from
// drifting.
func TestEveryCommandHasTests(t *testing.T) {
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	commands := 0
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		dir := filepath.Join("cmd", d.Name())
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		isMain, tested := false, false
		for _, e := range entries {
			name := e.Name()
			switch {
			case e.IsDir() || !strings.HasSuffix(name, ".go"):
			case strings.HasSuffix(name, "_test.go"):
				tested = true
			default:
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.PackageClauseOnly)
				if err != nil {
					t.Fatal(err)
				}
				isMain = isMain || f.Name.Name == "main"
			}
		}
		if !isMain {
			continue
		}
		commands++
		if !tested {
			t.Errorf("%s is a command with no _test.go file", dir)
		}
	}
	if commands == 0 {
		t.Fatal("found no command under cmd/")
	}
}
