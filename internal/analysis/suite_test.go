package analysis_test

import (
	"path/filepath"
	"testing"

	"rlz/internal/analysis"
	"rlz/internal/analysis/analysistest"
)

func fix(name string) string { return filepath.Join("testdata", "src", name) }

func TestErrClose(t *testing.T) { analysistest.Run(t, analysis.ErrClose, fix("errclose")) }
func TestAllocCap(t *testing.T) { analysistest.Run(t, analysis.AllocCap, fix("alloccap")) }

// The cross-package pair: same dep/app split, with and without the
// clamp in the dep package. The ok fixture has no want comments — the
// callee's clamp must silence the caller's allocation through the
// shared fact index; the bad fixture must flag it.
func TestAllocCapCrossPackageOK(t *testing.T) {
	analysistest.Run(t, analysis.AllocCap, fix("alloccap_xpkg_ok"))
}
func TestAllocCapCrossPackageBad(t *testing.T) {
	analysistest.Run(t, analysis.AllocCap, fix("alloccap_xpkg_bad"))
}

// TestRepositoryIsClean is the acceptance gate: the full suite over the
// real tree must report nothing. It is the same run `rlzvet ./...`
// performs, so a failure here reproduces on the command line.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := analysis.LoadPackages("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := analysis.Check(pkgs, analysis.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range bad {
		t.Errorf("%s", f)
	}
}
