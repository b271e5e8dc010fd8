package app

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestCmdStaysThin is the in-repo mirror of the CI grep: no cmd/ file may
// reintroduce an inline strategy/adversary name table or a wire-spec
// literal. Component names belong in internal/registry; the frontends are
// stubs over this package.
func TestCmdStaysThin(t *testing.T) {
	banned := regexp.MustCompile(`"(A_[A-Za-z_]+|EDF[A-Za-z_]*|first_fit|random_fit|ranking)"` +
		`|"(fix|current|current_factorial|fix_balance|eager|balance|universal|universal_anyd|local_fix|edf)"` +
		`|BuildSpec\{`)
	files, err := filepath.Glob(filepath.Join("..", "..", "cmd", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no cmd/ sources found; wrong working directory?")
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := banned.Find(b); m != nil {
			t.Errorf("%s contains %q: component name tables belong in internal/registry", f, m)
		}
	}
}

// TestOraclesStayOutOfProduction is the in-repo mirror of the CI dependency
// check: the test-only oracle package internal/matching/matchtest (Dinic max
// flow) may be imported from _test.go files only. Every import edge of a
// production package starts in a non-test file, so checking those files'
// imports keeps the oracle out of every binary, example and library.
func TestOraclesStayOutOfProduction(t *testing.T) {
	const oracle = "reqsched/internal/matching/matchtest"
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == oracle {
				t.Errorf("%s imports %s: test oracles belong in _test.go files", path, oracle)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go sources found; wrong working directory?")
	}
}
