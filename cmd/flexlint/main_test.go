package main

import (
	"testing"

	"flex/internal/analysis"
)

// TestPackagePatternSeesModuleFacts is the regression test for linting a
// sub-tree: ./internal/controller/... used to report 14 allocfree findings
// ("call to flex/internal/obs.Inc, which may allocate") and
// ./internal/fleet/... two, on a tree where ./... is clean, because the
// facts of packages outside the pattern were never computed.
func TestPackagePatternSeesModuleFacts(t *testing.T) {
	for _, pattern := range []string{"../../internal/controller/...", "../../internal/fleet/..."} {
		findings, loader, err := check(analyzers, []string{pattern})
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		for _, f := range findings {
			t.Errorf("%s: %s", pattern, analysis.Format(loader.Fset, "", f))
		}
	}
}
