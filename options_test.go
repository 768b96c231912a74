package keysearch

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

// TestEveryOptionHasACaller: every exported With* option of this package
// is referenced by some non-test Go file other than keysearch.go, where
// the options are declared. An option only tests set is a fork of the
// engine that no deployment runs; delete it or give it a caller.
func TestEveryOptionHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	options := map[string]bool{} // name → has a caller
	for _, f := range pkgs["keysearch"].Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() && strings.HasPrefix(fd.Name.Name, "With") {
				options[fd.Name.Name] = false
			}
		}
	}
	if len(options) == 0 {
		t.Fatal("no With* options found")
	}

	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == "keysearch.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok {
				// A declaration's own name is not a call; its body may be.
				if fd.Body != nil {
					ast.Inspect(fd.Body, func(n ast.Node) bool { markOption(options, n); return true })
				}
				return false
			}
			markOption(options, n)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	for name, called := range options {
		if !called {
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Fatalf("options with no caller outside tests and keysearch.go: %v", uncalled)
	}
}

// markOption records a reference to a known option name.
func markOption(options map[string]bool, n ast.Node) {
	if id, ok := n.(*ast.Ident); ok {
		if _, known := options[id.Name]; known {
			options[id.Name] = true
		}
	}
}
