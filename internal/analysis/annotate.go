package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The //rlz: annotation grammar. Each directive is one comment line in
// a declaration's doc (or trailing line comment):
//
//	//rlz:refcounted acquire=M release=N   on a type: method M takes a
//	        reference that method N must release. A bool-returning M is
//	        a conditional acquire (the CAS tryRef idiom): the reference
//	        exists only on the true branch.
//	//rlz:acquire release=closure          on a func: one of the results
//	        is a func() that must be called (or deferred) on all paths.
//	//rlz:acquire release=M                on a func: the first non-error
//	        result carries a reference that a call ending in .M() on it
//	        (e.h.unref(), v.unref()) must release on all paths.
//	//rlz:unbalanced <reason>              on a func: refpair does not
//	        check it — it transfers reference ownership by design
//	        (install/drain points). The reason is mandatory.
//	//rlz:hotpath                          on a func: no fmt/log calls,
//	        no capturing closures, no interface boxing outside cold
//	        (return/panic) positions.
//	//rlz:publishes                        on a func: it atomically
//	        publishes a file — fsyncorder verifies every path that
//	        reaches its os.Rename fsyncs the data first and handles the
//	        rename error.
//	//rlz:trusted <reason>                 on a func, or as a line
//	        comment on an allocation statement: alloccap accepts the
//	        decoded size without a clamp. The reason is mandatory.
//	//rlz:untrusted                        on a func: its integer
//	        results decode raw input bytes — alloccap treats them as
//	        taint sources, like encoding/binary's decoders.

// Entry is every annotation attached to one declaration, keyed by the
// declaration's qualified name. The zero value means unannotated.
type Entry struct {
	Refcounted       bool
	Acquire, Release string // refcounted method names

	AcquireFunc    bool
	AcquireRelease string // "closure" or a release method name

	Unbalanced bool
	HotPath    bool

	Publishes bool
	Trusted   bool
	Untrusted bool // integer results decode untrusted input (taint sources)
}

// Index maps qualified declaration names to their annotations across
// every package the driver has seen — the suite's facts store. Keys:
//
//	types and funcs    pkgpath.Name
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

// TypeKey builds the index key for a named type.
func TypeKey(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
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
					key := pkgPath + "." + ts.Name.Name
					doc := ts.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					collectTypeDirectives(key, doc, ts.Comment, idx, report)
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

// kvArgs parses "k1=v1 k2=v2" directive arguments.
func kvArgs(args []string) (map[string]string, bool) {
	m := map[string]string{}
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok || k == "" || v == "" {
			return nil, false
		}
		m[k] = v
	}
	return m, true
}

type reportFn func(pos token.Pos, format string, args ...any)

func collectTypeDirectives(key string, doc, line *ast.CommentGroup, idx *Index, report reportFn) {
	for _, c := range directives(doc, line) {
		verb, args := splitDirective(c.Text)
		switch verb {
		case "refcounted":
			kv, ok := kvArgs(args)
			if !ok || kv["acquire"] == "" || kv["release"] == "" || len(kv) != 2 {
				report(c.Pos(), "malformed directive %q (want //rlz:refcounted acquire=M release=N)", c.Text)
				continue
			}
			e := idx.entry(key)
			e.Refcounted, e.Acquire, e.Release = true, kv["acquire"], kv["release"]
		default:
			report(c.Pos(), "directive %q is not valid on a type", c.Text)
		}
	}
}

func collectFuncDirectives(key string, doc *ast.CommentGroup, idx *Index, report reportFn) {
	for _, c := range directives(doc) {
		verb, args := splitDirective(c.Text)
		switch verb {
		case "acquire":
			kv, ok := kvArgs(args)
			if !ok || kv["release"] == "" || len(kv) != 1 {
				report(c.Pos(), "malformed directive %q (want //rlz:acquire release=closure|M)", c.Text)
				continue
			}
			e := idx.entry(key)
			e.AcquireFunc, e.AcquireRelease = true, kv["release"]
		case "unbalanced":
			if len(args) == 0 {
				report(c.Pos(), "//rlz:unbalanced needs a reason")
				continue
			}
			idx.entry(key).Unbalanced = true
		case "hotpath":
			idx.entry(key).HotPath = true
		case "publishes":
			if len(args) != 0 {
				report(c.Pos(), "malformed directive %q (want //rlz:publishes with no arguments)", c.Text)
				continue
			}
			idx.entry(key).Publishes = true
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
