package fleet

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoExecutionLayerImports keeps the fleet engine a plain sweep: its
// non-test code, and every in-module package it reaches, must not import
// the fabric coordinator or the sweep service. Fanning a fleet out over
// peers is cmd/experiments' job. The walk reads the sources with go/build
// only, so it needs neither the go command nor the network.
func TestNoExecutionLayerImports(t *testing.T) {
	const module = "clocksched"
	root := filepath.Join("..", "..")
	forbidden := map[string]bool{
		module + "/internal/fabric":  true,
		module + "/internal/service": true,
	}
	seen := map[string]bool{module + "/internal/fleet": true}
	queue := []string{module + "/internal/fleet"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, module)))
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if forbidden[imp] {
				t.Errorf("%s imports %s", path, imp)
			}
			if !seen[imp] && (imp == module || strings.HasPrefix(imp, module+"/")) {
				seen[imp] = true
				queue = append(queue, imp)
			}
		}
	}
}
