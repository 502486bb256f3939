package expt

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestNoGobImport keeps expt free of a cell codec of its own: every
// experiment that sweeps cells runs through clocksched.Sweep, whose result
// codec and cache keys are the only ones. A second grid runner would need
// gob to cache its cells, so the package's non-test code must not import
// it. The check reads the sources with go/build only.
func TestNoGobImport(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(pkg.Imports, "encoding/gob") {
		t.Error("internal/expt imports encoding/gob")
	}
}

// TestNoContextTODO keeps every simulated experiment under the run's
// context: the non-test code of expt and grids must not call context.TODO,
// which neither cancellation nor a deadline reaches. The check parses the
// sources with go/parser only.
func TestNoContextTODO(t *testing.T) {
	for _, dir := range []string{".", "../grids"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "TODO" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "context" {
						t.Errorf("%s calls context.TODO", fset.Position(call.Pos()))
					}
				}
				return true
			})
		}
	}
}
