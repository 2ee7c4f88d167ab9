package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// The loader. golang.org/x/tools/go/packages is not vendorable in this
// build environment, so packages are loaded the way the go tool itself
// feeds vet: `go list -export -deps -json` yields every dependency's
// compiled export data from the build cache, and the gc importer reads
// those files through a lookup function. Only the target packages'
// sources are parsed and type-checked; dependencies come in as export
// data, which works fully offline. Packages come back in `go list -deps`
// order, dependencies first — the order Check needs.

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

type goListPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *goListErr
}

type goListErr struct {
	Err string
}

// LoadPackages loads and type-checks the packages matching patterns,
// resolved relative to dir. Dependencies (including the standard
// library) are consumed as export data, never re-parsed.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,CgoFiles,Export,Standard,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*goListPkg
	dec := json.NewDecoder(&stdout)
	for {
		p := new(goListPkg)
		if err := dec.Decode(p); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", ExportLookup(exports))
	var out []*Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", t.ImportPath)
		}
		files, err := ParseFiles(fset, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		tpkg, info, err := TypeCheck(fset, imp, t.ImportPath, files)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", t.ImportPath, err)
		}
		out = append(out, &Package{
			ImportPath: t.ImportPath,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			Info:       info,
		})
	}
	return out, nil
}

// ListExports resolves the named import paths (and their dependencies)
// to compiled export files via `go list -export`, without parsing or
// type-checking anything. analysistest uses it to satisfy fixture
// imports of the standard library from the build cache.
func ListExports(dir string, paths ...string) (map[string]string, error) {
	exports := map[string]string{}
	if len(paths) == 0 {
		return exports, nil
	}
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export,Error"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	for {
		p := new(goListPkg)
		if err := dec.Decode(p); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// ExportLookup adapts an importpath→exportfile map to the lookup
// signature the gc importer wants. ("unsafe" never reaches the lookup;
// the importer resolves it internally.)
func ExportLookup(exports map[string]string) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
}

// ParseFiles parses the named files in dir with comments retained.
func ParseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// TypeCheck type-checks already-parsed files under the given importer,
// filling every types.Info map the analyzers consult.
func TypeCheck(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(path, fset, files, info)
	if firstErr != nil {
		return pkg, info, firstErr
	}
	if err != nil {
		return pkg, info, err
	}
	return pkg, info, nil
}
