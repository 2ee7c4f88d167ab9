package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The //rlz: annotation grammar. Each directive is one comment line in
// a function declaration's doc (or trailing line comment); any other
// verb, and any directive on a type, is a finding:
//
//	//rlz:trusted <reason>                 on a func, or as a line
//	        comment on an allocation statement: alloccap accepts the
//	        decoded size without a clamp. The reason is mandatory.
//	//rlz:untrusted                        on a func: its integer
//	        results decode raw input bytes — alloccap treats them as
//	        taint sources, like encoding/binary's decoders.

// Entry is every annotation attached to one declaration, keyed by the
// declaration's qualified name. The zero value means unannotated.
type Entry struct {
	Trusted   bool
	Untrusted bool // integer results decode untrusted input (taint sources)
}

// Index maps qualified declaration names to their annotations across
// every package the driver has seen — the suite's facts store. Keys:
//
//	funcs              pkgpath.Name
//	methods            pkgpath.RecvType.Name (interface methods too)
//
// Beyond the syntactic annotations, the index carries the computed
// interprocedural facts: per-function dataflow summaries (Summaries,
// see summary.go).
type Index struct {
	Entries map[string]*Entry
	// Summaries maps FuncKey to the function's dataflow summary.
	Summaries map[string]*FuncSummary
}

func newIndex() *Index {
	return &Index{Entries: map[string]*Entry{}, Summaries: map[string]*FuncSummary{}}
}

// Summary returns the dataflow summary for key, or nil.
func (i *Index) Summary(key string) *FuncSummary {
	if i == nil {
		return nil
	}
	return i.Summaries[key]
}

func (i *Index) entry(key string) *Entry {
	e := i.Entries[key]
	if e == nil {
		e = &Entry{}
		i.Entries[key] = e
	}
	return e
}

// Lookup returns the annotations for key, or nil.
func (i *Index) Lookup(key string) *Entry {
	if i == nil {
		return nil
	}
	return i.Entries[key]
}

// FuncKey builds the index key for a function or method object.
func FuncKey(fn *types.Func) string {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name := n.Obj().Name()
			if n.Obj().Pkg() != nil {
				name = n.Obj().Pkg().Path() + "." + name
			}
			return name + "." + fn.Name()
		}
		return pkgPath + "." + fn.Name()
	}
	if pkgPath == "" {
		return fn.Name()
	}
	return pkgPath + "." + fn.Name()
}

// collectAnnotations scans one package's syntax for //rlz: directives
// and folds them into idx. Malformed directives are returned as findings
// so they fail the build loudly instead of being silently ignored.
func collectAnnotations(fset *token.FileSet, pkgPath string, files []*ast.File, idx *Index) []Finding {
	var bad []Finding
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Finding{
			Analyzer: "rlzdirective",
			Pos:      fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				key := funcDeclKey(pkgPath, d)
				collectFuncDirectives(key, d.Doc, idx, report)
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					collectTypeDirectives(doc, ts.Comment, report)
					if it, ok := ts.Type.(*ast.InterfaceType); ok {
						collectInterfaceMethods(pkgPath, ts.Name.Name, it, idx, report)
					}
				}
			}
		}
	}
	return bad
}

func funcDeclKey(pkgPath string, d *ast.FuncDecl) string {
	if d.Recv != nil && len(d.Recv.List) == 1 {
		t := d.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver
			t = ix.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return pkgPath + "." + id.Name + "." + d.Name.Name
		}
	}
	return pkgPath + "." + d.Name.Name
}

// directives extracts the //rlz: lines of a comment group.
func directives(groups ...*ast.CommentGroup) []*ast.Comment {
	var out []*ast.Comment
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if strings.HasPrefix(c.Text, "//rlz:") {
				out = append(out, c)
			}
		}
	}
	return out
}

type reportFn func(pos token.Pos, format string, args ...any)

// collectTypeDirectives reports every directive on a type: none is valid
// there.
func collectTypeDirectives(doc, line *ast.CommentGroup, report reportFn) {
	for _, c := range directives(doc, line) {
		report(c.Pos(), "directive %q is not valid on a type", c.Text)
	}
}

func collectFuncDirectives(key string, doc *ast.CommentGroup, idx *Index, report reportFn) {
	for _, c := range directives(doc) {
		verb, args := splitDirective(c.Text)
		switch verb {
		case "trusted":
			if len(args) == 0 {
				report(c.Pos(), "//rlz:trusted needs a reason")
				continue
			}
			idx.entry(key).Trusted = true
		case "untrusted":
			if len(args) != 0 {
				report(c.Pos(), "malformed directive %q (want //rlz:untrusted with no arguments)", c.Text)
				continue
			}
			idx.entry(key).Untrusted = true
		default:
			report(c.Pos(), "unknown directive %q", c.Text)
		}
	}
}

func collectInterfaceMethods(pkgPath, ifaceName string, it *ast.InterfaceType, idx *Index, report reportFn) {
	for _, m := range it.Methods.List {
		if len(m.Names) != 1 {
			continue // embedded interface
		}
		key := pkgPath + "." + ifaceName + "." + m.Names[0].Name
		collectFuncDirectives(key, m.Doc, idx, report)
		collectFuncDirectives(key, m.Comment, idx, report)
	}
}

func splitDirective(text string) (verb string, args []string) {
	rest := strings.TrimPrefix(text, "//rlz:")
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", nil
	}
	return fields[0], fields[1:]
}
