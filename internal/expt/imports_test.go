package expt

import (
	"go/build"
	"slices"
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
