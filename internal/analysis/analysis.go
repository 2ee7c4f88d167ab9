// Package analysis is this repository's static-analysis framework: a
// stdlib-only equivalent of golang.org/x/tools/go/analysis (which the
// build environment cannot fetch) plus the two analyzers that check
// invariants on paths tests do not take — unchecked Close/Sync/Remove
// errors (errclose) and untrusted decoded sizes clamped before
// allocation (alloccap).
//
// Lock discipline on `guarded by mu` fields, pooled-buffer and mmap-view
// lifetimes, typed-atomic copies, allocation-free hot paths, reference
// pairing and fsync-before-rename are checked elsewhere: by the race
// job, the allocation pins, the view-pin and pool probes, the fault
// matrix, the read-only mapping and stock go vet's copylocks (CHANGES.md
// has the mutation tables that show it).
//
// alloccap consumes per-function summaries (summary.go) computed package
// by package in dependency order over one shared fact index, so a clamp
// inside a callee in another package satisfies the caller's obligation.
//
// The analyzers are annotation-driven: types and functions opt into an
// invariant with an //rlz: comment (see annotate.go for the grammar),
// so the checks grow with the codebase instead of hardcoding today's
// type names. Check is the one run sequence: cmd/rlzvet,
// TestRepositoryIsClean and internal/analysis/analysistest (which runs
// each analyzer over the fixture packages in testdata/src) all call it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named static check, mirroring the x/tools shape so
// the suite can migrate to the real framework if it ever becomes
// vendorable.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags.
	Name string
	// Doc is the one-paragraph description `rlzvet help` prints.
	Doc string
	// Run performs the check over one package and reports diagnostics
	// through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed syntax, comments included.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Ann is the annotation index covering this package and everything
	// it imports (the suite's facts mechanism).
	Ann *Index
	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ErrClose,
		AllocCap,
	}
}

// Finding pairs a diagnostic with the analyzer that produced it and its
// resolved position, the unit drivers print and tests compare.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Check runs analyzers over pkgs, which must come dependencies first
// (the order `go list -deps` prints): it collects every package's //rlz:
// annotations into one index, computes each package's summaries after
// its callees' (so a clamp or fsync one package over is already known),
// then applies the analyzers package by package. Malformed directives
// are findings like any other.
func Check(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	idx := newIndex()
	var out []Finding
	for _, p := range pkgs {
		out = append(out, collectAnnotations(p.Fset, p.ImportPath, p.Files, idx)...)
	}
	for _, p := range pkgs {
		computeSummaries(p, idx)
	}
	for _, p := range pkgs {
		fs, err := runAnalyzers(p, analyzers, idx)
		if err != nil {
			return out, err
		}
		out = append(out, fs...)
	}
	return out, nil
}

// runAnalyzers applies every analyzer to pkg and returns the findings
// sorted by position. Test files (*_test.go) are excluded from every
// analyzer: the invariants protect production paths, and test helpers
// legitimately drop Close errors or hold buffers across calls.
func runAnalyzers(pkg *Package, analyzers []*Analyzer, ann *Index) ([]Finding, error) {
	var out []Finding
	files := make([]*ast.File, 0, len(pkg.Files))
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		if isTestFile(name) {
			continue
		}
		files = append(files, f)
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Ann:      ann,
			Report: func(d Diagnostic) {
				out = append(out, Finding{Analyzer: a.Name, Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
			},
		}
		if err := a.Run(pass); err != nil {
			return out, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

func isTestFile(name string) bool {
	const suffix = "_test.go"
	return len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix
}
