// Package analysistest runs one analyzer over a fixture and compares
// its findings against the fixture's own expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest for this repository's
// stdlib-only framework.
//
// A fixture is a directory of .go files (conventionally under
// internal/analysis/testdata/src/<analyzer>), or — for the
// interprocedural analyzers — a directory of subdirectories, each one
// package, importable from each other as
// rlz/fixture/<fixture>/<subdir>. Packages are type-checked in
// dependency order and handed to analysis.Check, the run rlzvet makes,
// so a clamp or an fsync in one fixture package satisfies an obligation
// in another exactly as facts flow between real packages.
//
// Expected findings are declared in comments on the offending line:
//
//	v.tryRef() // want `must be used directly in an if condition`
//
// Each backquoted or double-quoted string after "want" is a regexp that
// must match the message of one finding reported on that line; findings
// with no matching expectation, and expectations with no matching
// finding, both fail the test. A fixture with no want comments asserts
// the analyzer stays silent — that is how the known-good idioms
// (deferred Put, CAS acquire loops, drain-then-close) are pinned
// against false positives.
package analysistest

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rlz/internal/analysis"
)

// fixturePrefix is the import-path namespace fixture packages live in;
// sub-package fixtures import each other under it.
const fixturePrefix = "rlz/fixture/"

// expectation is one want pattern, anchored to a file line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	src     string
	matched bool
}

var wantArgRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// Run applies analyzer a to the fixture in dir (one package, or one
// package per subdirectory) and reports any mismatch between its
// findings and the fixture's want comments as test errors.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	findings, pkgs, err := analyze(a, dir)
	if err != nil {
		t.Fatal(err)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			fname := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
			for _, g := range f.Comments {
				for _, c := range g.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					line := pkg.Fset.Position(c.Pos()).Line
					for _, m := range wantArgRe.FindAllStringSubmatch(text[len("want "):], -1) {
						src := m[1]
						if m[2] != "" || src == "" {
							var uerr error
							src, uerr = strconv.Unquote(`"` + m[2] + `"`)
							if uerr != nil {
								t.Fatalf("%s:%d: bad want pattern %q: %v", fname, line, m[2], uerr)
							}
						}
						re, rerr := regexp.Compile(src)
						if rerr != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", fname, line, src, rerr)
						}
						wants = append(wants, &expectation{file: fname, line: line, re: re, src: src})
					}
				}
			}
		}
	}

	for _, f := range findings {
		fname := filepath.Base(f.Pos.Filename)
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == fname && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected finding: %s: %s", fname, f.Pos.Line, f.Analyzer, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched `%s`", w.file, w.line, w.src)
		}
	}
}

// fixtureImporter satisfies fixture-to-fixture imports from the already
// type-checked packages and everything else from stdlib export data.
type fixtureImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
}

func (i *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.pkgs[path]; ok {
		return p, nil
	}
	return i.std.Import(path)
}

// unit is one fixture package before type-checking.
type unit struct {
	path    string // import path under fixturePrefix
	dir     string
	names   []string
	imports []string // fixture-internal imports, as import paths
}

// analyze parses and type-checks (in dependency order) the fixture in
// dir and runs a over it through analysis.Check. Non-fixture imports are
// restricted to the standard library, satisfied as export data from the
// build cache.
func analyze(a *analysis.Analyzer, dir string) ([]analysis.Finding, []*analysis.Package, error) {
	units, stdImports, err := discover(dir)
	if err != nil {
		return nil, nil, err
	}

	fset := token.NewFileSet()
	exports, err := analysis.ListExports(dir, stdImports...)
	if err != nil {
		return nil, nil, err
	}
	imp := &fixtureImporter{
		std:  importer.ForCompiler(fset, "gc", analysis.ExportLookup(exports)),
		pkgs: map[string]*types.Package{},
	}

	// Type-check in dependency order: each round admits the units whose
	// fixture-internal imports are already done.
	var pkgs []*analysis.Package
	for len(units) > 0 {
		progressed := false
		var remaining []*unit
		for _, u := range units {
			ready := true
			for _, dep := range u.imports {
				if _, ok := imp.pkgs[dep]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				remaining = append(remaining, u)
				continue
			}
			progressed = true
			files, err := analysis.ParseFiles(fset, u.dir, u.names)
			if err != nil {
				return nil, nil, err
			}
			tpkg, info, err := analysis.TypeCheck(fset, imp, u.path, files)
			if err != nil {
				return nil, nil, fmt.Errorf("type-checking fixture %s: %v", u.dir, err)
			}
			imp.pkgs[u.path] = tpkg
			pkgs = append(pkgs, &analysis.Package{
				ImportPath: u.path,
				Fset:       fset,
				Files:      files,
				Types:      tpkg,
				Info:       info,
			})
		}
		if !progressed {
			var stuck []string
			for _, u := range units {
				stuck = append(stuck, u.path)
			}
			return nil, nil, fmt.Errorf("fixture import cycle or missing package among %v", stuck)
		}
		units = remaining
	}

	findings, err := analysis.Check(pkgs, []*analysis.Analyzer{a})
	return findings, pkgs, err
}

// discover maps dir onto fixture units: either the directory itself as
// one package, or one unit per .go-bearing subdirectory. It also
// returns the sorted union of non-fixture imports.
func discover(dir string) ([]*unit, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	base := filepath.Base(dir)
	var units []*unit
	var rootNames []string
	for _, e := range entries {
		if e.IsDir() {
			sub := filepath.Join(dir, e.Name())
			names, err := goFiles(sub)
			if err != nil {
				return nil, nil, err
			}
			if len(names) > 0 {
				units = append(units, &unit{
					path:  fixturePrefix + base + "/" + e.Name(),
					dir:   sub,
					names: names,
				})
			}
			continue
		}
		if strings.HasSuffix(e.Name(), ".go") {
			rootNames = append(rootNames, e.Name())
		}
	}
	if len(rootNames) > 0 {
		sort.Strings(rootNames)
		units = append(units, &unit{path: fixturePrefix + base, dir: dir, names: rootNames})
	}
	if len(units) == 0 {
		return nil, nil, fmt.Errorf("no fixture files in %s", dir)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].path < units[j].path })

	seen := map[string]bool{}
	var std []string
	for _, u := range units {
		fset := token.NewFileSet()
		files, err := analysis.ParseFiles(fset, u.dir, u.names)
		if err != nil {
			return nil, nil, err
		}
		for _, f := range files {
			for _, im := range f.Imports {
				path, _ := strconv.Unquote(im.Path.Value)
				switch {
				case path == "" || path == "unsafe" || seen[path]:
				case strings.HasPrefix(path, fixturePrefix):
					u.imports = append(u.imports, path)
				default:
					seen[path] = true
					std = append(std, path)
				}
			}
		}
	}
	sort.Strings(std)
	return units, std, nil
}

func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
