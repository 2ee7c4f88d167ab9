package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"slices"
)

// Interprocedural dataflow summaries. For every function a package
// declares, the suite computes which of its results carry sizes decoded
// from untrusted input without a clamp, and which of its parameters reach
// an allocation size unclamped. Summaries ride the Index, so a clamp
// inside internal/codec satisfies an allocation in internal/blockstore.
//
// The taint model (alloccap's contract): a value is untrusted if it was
// decoded from raw bytes — a result of encoding/binary's Uvarint/Varint/
// Uint16/Uint32/Uint64, of a function annotated //rlz:untrusted, or of a
// function whose summary says so transitively. Taint propagates through
// assignment, conversion and size-preserving arithmetic (+ - * / << >>
// | ^). It is discharged by a clamp: a relational comparison (< <= > >=)
// in an if condition against a bounding expression, the min builtin, %
// or & against a bounding operand, where "bounding" means any
// non-constant expression (a length, a file size, another field) or a
// constant no larger than maxConstClamp. A huge constant is not a clamp:
// comparing a decoded length against 1<<30 still lets two header bytes
// demand a gigabyte — exactly the docmap (PR 3) and zlib-bomb (PR 5)
// defect shape this analysis exists to kill.

// maxConstClamp is the largest constant bound that counts as a clamp: a
// decoded size compared only against a constant above this is still
// considered unclamped (64 KiB chunked reads pass; "at most 1 GiB"
// checks do not).
const maxConstClamp = 1 << 20

// FuncSummary is one function's interprocedural dataflow facts.
type FuncSummary struct {
	// TaintedResults lists result indices that carry a value decoded
	// from untrusted input and never clamped inside the function.
	TaintedResults []int
	// ParamBounded maps result index → parameter index for decoded
	// results whose only clamp is a comparison against that parameter:
	// the bound's quality is the caller's choice, so the call site
	// re-evaluates it against the actual argument. This is how
	// `uvarint(limit uint32)`-style helpers stay honest — passing a
	// 1<<30 "limit" does not launder the result.
	ParamBounded map[int]int
	// UnclampedAllocParams lists parameter indices that reach an
	// allocation size (make length/capacity), directly or through a
	// callee, without being clamped first.
	UnclampedAllocParams []int
}

func (s *FuncSummary) equal(o *FuncSummary) bool {
	return slices.Equal(s.TaintedResults, o.TaintedResults) &&
		maps.Equal(s.ParamBounded, o.ParamBounded) &&
		slices.Equal(s.UnclampedAllocParams, o.UnclampedAllocParams)
}

// computeSummaries records in idx the dataflow summary of every function
// pkg declares outside its test files; idx must already hold the
// summaries of pkg's dependencies. Within the package, summaries are
// iterated to a fixpoint so call cycles converge. Calls through function
// values and interface methods resolve to no summary, which every
// analyzer treats as "nothing known".
func computeSummaries(pkg *Package, idx *Index) {
	var keys []string
	var decls []*ast.FuncDecl
	for _, f := range pkg.Files {
		if isTestFile(pkg.Fset.Position(f.Pos()).Filename) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				keys = append(keys, FuncKey(fn))
				decls = append(decls, fd)
			}
		}
	}
	for iter := 0; iter < 10; iter++ {
		changed := false
		for i, key := range keys {
			sum := summarize(pkg, idx, decls[i])
			prev := idx.Summaries[key]
			if prev == nil {
				prev = &FuncSummary{}
			}
			if !sum.equal(prev) {
				idx.Summaries[key] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// summarize computes one function's summary against the current state
// of idx.
func summarize(pkg *Package, idx *Index, decl *ast.FuncDecl) *FuncSummary {
	sum := &FuncSummary{}
	info := pkg.Info

	// Source-seeded taint: which results leave unclamped?
	sc := newTaintScope(pkg.Info, idx, decl, nil)
	sum.TaintedResults, sum.ParamBounded = sc.taintedResults()

	// Param-seeded taint, one integer parameter at a time: which
	// parameters reach an allocation size unclamped?
	for i, obj := range paramObjs(info, decl) {
		if obj == nil || !isIntegerType(obj.Type()) {
			continue
		}
		psc := newTaintScope(pkg.Info, idx, decl, obj)
		if psc.reachesAlloc() {
			sum.UnclampedAllocParams = append(sum.UnclampedAllocParams, i)
		}
	}
	return sum
}

// paramObjs returns the declared parameter objects in signature order
// (nil for unnamed or blank parameters).
func paramObjs(info *types.Info, decl *ast.FuncDecl) []types.Object {
	var out []types.Object
	if decl.Type.Params == nil {
		return nil
	}
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				out = append(out, nil)
				continue
			}
			out = append(out, info.Defs[name])
		}
	}
	return out
}

func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// taintScope tracks untrusted-size dataflow through one function body
// (function literals included — taint flows into closures through
// captured variables).
type taintScope struct {
	info *types.Info
	idx  *Index
	decl *ast.FuncDecl
	// seed, when non-nil, is the single parameter seeded as tainted and
	// the source table is disabled (param-mode, for summaries). When
	// nil, decode-source calls seed the taint (source-mode).
	seed types.Object

	tainted  map[types.Object]bool
	cleansed map[types.Object]bool
	// condCleansed records variables whose only clamp was a comparison
	// against a parameter of this function: locally treated as cleansed
	// (the caller may pass a fine bound), but surfaced to callers as
	// ParamBounded so the call site judges the actual argument.
	condCleansed map[types.Object]int
}

func newTaintScope(info *types.Info, idx *Index, decl *ast.FuncDecl, seed types.Object) *taintScope {
	s := &taintScope{
		info: info, idx: idx, decl: decl, seed: seed,
		tainted:      map[types.Object]bool{},
		cleansed:     map[types.Object]bool{},
		condCleansed: map[types.Object]int{},
	}
	if seed != nil {
		s.tainted[seed] = true
	}
	s.collectCleansed()
	s.propagate()
	return s
}

// collectCleansed marks every variable that participates in a relational
// comparison against a bounding expression inside an if condition, plus
// aliasing back-propagation (if n2 := n was later clamped, n is treated
// as clamped too — the comparison vouches for the same value).
func (s *taintScope) collectCleansed() {
	info := s.info
	params := paramObjs(info, s.decl)
	paramIndex := func(e ast.Expr) (int, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return 0, false
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return 0, false
		}
		for i, p := range params {
			if p != nil && p == obj {
				return i, true
			}
		}
		return 0, false
	}
	uncond := map[types.Object]bool{}
	mark := func(e, bound ast.Expr) {
		pi, viaParam := paramIndex(bound)
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					if _, isVar := obj.(*types.Var); isVar {
						s.cleansed[obj] = true
						if viaParam {
							if _, dup := s.condCleansed[obj]; !dup {
								s.condCleansed[obj] = pi
							}
						} else {
							uncond[obj] = true
						}
					}
				}
			}
			return true
		})
	}
	ast.Inspect(s.decl.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			bin, ok := c.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch bin.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
			default:
				return true
			}
			if s.bounding(bin.Y) {
				mark(bin.X, bin.Y)
			}
			if s.bounding(bin.X) {
				mark(bin.Y, bin.X)
			}
			return true
		})
		return true
	})
	// An unconditional clamp trumps a parameter-conditional one.
	for obj := range uncond {
		delete(s.condCleansed, obj)
	}

	// Alias back-propagation to a fixpoint.
	type alias struct{ lhs, rhs types.Object }
	var aliases []alias
	ast.Inspect(s.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			l, lok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			r, rok := ast.Unparen(as.Rhs[i]).(*ast.Ident)
			if lok && rok {
				lo, ro := info.ObjectOf(l), info.ObjectOf(r)
				if lo != nil && ro != nil {
					aliases = append(aliases, alias{lo, ro})
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, a := range aliases {
			if s.cleansed[a.lhs] && !s.cleansed[a.rhs] {
				s.cleansed[a.rhs] = true
				changed = true
			}
			if pi, ok := s.condCleansed[a.lhs]; ok {
				if _, dup := s.condCleansed[a.rhs]; !dup && !uncond[a.rhs] {
					s.condCleansed[a.rhs] = pi
					changed = true
				}
			}
		}
	}
}

// bounding reports whether e can serve as a clamp bound: any
// non-constant expression, or a constant no larger than maxConstClamp.
func (s *taintScope) bounding(e ast.Expr) bool {
	return !s.hugeConst(e)
}

// hugeConst reports whether e is a compile-time constant larger than
// maxConstClamp — a "bound" that still allows amplification.
func (s *taintScope) hugeConst(e ast.Expr) bool {
	tv, ok := s.info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	iv := constant.ToInt(tv.Value)
	if iv.Kind() != constant.Int {
		return false
	}
	v, exact := constant.Int64Val(iv)
	if !exact {
		return true // does not fit int64: certainly huge
	}
	return v > maxConstClamp
}

// propagate spreads taint through assignments until stable.
func (s *taintScope) propagate() {
	info := s.info
	for changed := true; changed; {
		changed = false
		ast.Inspect(s.decl.Body, func(n ast.Node) bool {
			lhs, rhs := assignParts(n)
			if lhs == nil {
				return true
			}
			if len(rhs) == 1 && len(lhs) > 1 {
				// Multi-value call: v, n, err := decode(src).
				call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, i := range s.sourceResults(call) {
					if i < len(lhs) {
						changed = s.markTainted(info, lhs[i]) || changed
					}
				}
				return true
			}
			for i := range lhs {
				if i < len(rhs) && s.exprTainted(rhs[i]) {
					changed = s.markTainted(info, lhs[i]) || changed
				}
			}
			return true
		})
	}
}

func (s *taintScope) markTainted(info *types.Info, lhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.ObjectOf(id)
	if obj == nil || s.tainted[obj] {
		return false
	}
	if s.cleansed[obj] {
		// Conditionally cleansed values still record their taint so the
		// summary can export the result as ParamBounded.
		if _, cond := s.condCleansed[obj]; !cond {
			return false
		}
	}
	s.tainted[obj] = true
	return true
}

// assignParts decomposes assignment-shaped statements into LHS/RHS
// expression lists.
func assignParts(n ast.Node) (lhs, rhs []ast.Expr) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return n.Lhs, n.Rhs
	case *ast.ValueSpec:
		if len(n.Values) == 0 {
			return nil, nil
		}
		lhs = make([]ast.Expr, len(n.Names))
		for i, name := range n.Names {
			lhs[i] = name
		}
		return lhs, n.Values
	}
	return nil, nil
}

// sourceResults returns the result indices of call that carry untrusted
// decoded values: the built-in encoding/binary decoders, functions
// annotated //rlz:untrusted, and functions whose computed summary says
// so. Disabled in param-mode (summaries isolate one parameter).
func (s *taintScope) sourceResults(call *ast.CallExpr) []int {
	if s.seed != nil {
		return nil
	}
	fn := calleeOf(s.info, call)
	if fn == nil {
		return nil
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" {
		switch fn.Name() {
		case "Uvarint", "Varint", "ReadUvarint", "ReadVarint",
			"Uint16", "Uint32", "Uint64":
			return []int{0}
		}
	}
	key := FuncKey(fn)
	if e := s.idx.Lookup(key); e != nil && e.Untrusted {
		return integerResults(fn)
	}
	if sum := s.idx.Summary(key); sum != nil {
		out := slices.Clone(sum.TaintedResults)
		// Parameter-bounded results: the callee's clamp is only as good
		// as the argument this call site passes for the bound.
		for res, p := range sum.ParamBounded {
			if p < len(call.Args) && s.unbounded(call.Args[p]) {
				out = append(out, res)
			}
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	return nil
}

// integerResults lists fn's integer-typed result indices.
func integerResults(fn *types.Func) []int {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	var out []int
	for i := 0; i < sig.Results().Len(); i++ {
		if isIntegerType(sig.Results().At(i).Type()) {
			out = append(out, i)
		}
	}
	return out
}

// unbounded reports whether e fails to bound a value from above: it is
// itself tainted, or a constant above maxConstClamp.
func (s *taintScope) unbounded(e ast.Expr) bool {
	return s.exprTainted(e) || s.hugeConst(e)
}

// exprTainted reports whether e's value derives from untrusted input
// without an intervening clamp.
func (s *taintScope) exprTainted(e ast.Expr) bool {
	if e == nil {
		return false
	}
	if tv, ok := s.info.Types[e]; ok && tv.Value != nil {
		return false // compile-time constant
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := s.info.ObjectOf(e)
		return obj != nil && s.tainted[obj] && !s.cleansed[obj]
	case *ast.UnaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.XOR:
			return s.exprTainted(e.X)
		}
		return false
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.SHL, token.SHR, token.OR, token.XOR:
			return s.exprTainted(e.X) || s.exprTainted(e.Y)
		case token.REM, token.AND:
			// n % m and n & mask are bounded by the right/other operand:
			// tainted only when both sides fail to bound.
			return s.unbounded(e.X) && s.unbounded(e.Y)
		}
		return false
	case *ast.CallExpr:
		if tv, ok := s.info.Types[e.Fun]; ok && tv.IsType() {
			// Conversion: uint64(n).
			if len(e.Args) == 1 {
				return s.exprTainted(e.Args[0])
			}
			return false
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if _, isBuiltin := s.info.Uses[id].(*types.Builtin); isBuiltin {
				switch id.Name {
				case "min":
					// Clamped if any argument bounds the result.
					for _, a := range e.Args {
						if !s.unbounded(a) {
							return false
						}
					}
					return true
				case "max":
					for _, a := range e.Args {
						if s.exprTainted(a) {
							return true
						}
					}
					return false
				default:
					return false // len, cap, ...
				}
			}
		}
		for _, i := range s.sourceResults(e) {
			if i == 0 {
				return true // single-value use of a source call
			}
		}
		return false
	}
	return false
}

// taintedResults returns the indices of the function's results that are
// tainted at some return statement (named results included), plus the
// result→parameter map for results whose only clamp was a comparison
// against a parameter.
func (s *taintScope) taintedResults() ([]int, map[int]int) {
	info := s.info
	results := s.decl.Type.Results
	if results == nil {
		return nil, nil
	}
	nres := 0
	var named []types.Object
	for _, field := range results.List {
		if len(field.Names) == 0 {
			nres++
			named = append(named, nil)
			continue
		}
		for _, name := range field.Names {
			nres++
			if name.Name == "_" {
				named = append(named, nil)
			} else {
				named = append(named, info.Defs[name])
			}
		}
	}
	set := map[int]bool{}
	bounded := map[int]int{}
	markResult := func(i int, obj types.Object) {
		if obj == nil || !s.tainted[obj] {
			return
		}
		if pi, cond := s.condCleansed[obj]; cond {
			if _, dup := bounded[i]; !dup {
				bounded[i] = pi
			}
			return
		}
		if !s.cleansed[obj] {
			set[i] = true
		}
	}
	inspectBody(s.decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		switch {
		case len(ret.Results) == 0:
			// Bare return: named results carry the values.
			for i, obj := range named {
				markResult(i, obj)
			}
		case len(ret.Results) == 1 && nres > 1:
			// return f(x): map the callee's tainted results through.
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				for _, i := range s.sourceResults(call) {
					set[i] = true
				}
			}
		default:
			for i, r := range ret.Results {
				if s.exprTainted(r) {
					set[i] = true
				} else if id, ok := ast.Unparen(r).(*ast.Ident); ok {
					markResult(i, info.ObjectOf(id))
				}
			}
		}
		return true
	})
	var out []int
	for i := 0; i < nres; i++ {
		if set[i] {
			out = append(out, i)
			delete(bounded, i) // unconditional taint dominates
		}
	}
	if len(bounded) == 0 {
		bounded = nil
	}
	return out, bounded
}

// allocSites calls report for every allocation whose size is tainted:
// make length/capacity arguments, and arguments passed to parameters a
// callee's summary marks as reaching an allocation unclamped.
func (s *taintScope) allocSites(report func(pos token.Pos, viaCallee *types.Func, paramIdx int)) {
	ast.Inspect(s.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := s.info.Uses[id].(*types.Builtin); isBuiltin {
				if id.Name == "make" {
					for _, sz := range call.Args[1:] {
						if s.exprTainted(sz) {
							report(sz.Pos(), nil, 0)
						}
					}
				}
				return true
			}
		}
		fn := calleeOf(s.info, call)
		if fn == nil {
			return true
		}
		sum := s.idx.Summary(FuncKey(fn))
		if sum == nil || len(sum.UnclampedAllocParams) == 0 {
			return true
		}
		// Argument i is parameter i for both package-level calls and
		// methods: the receiver is not in UnclampedAllocParams space.
		args := call.Args
		for _, p := range sum.UnclampedAllocParams {
			if p < len(args) && s.exprTainted(args[p]) {
				report(args[p].Pos(), fn, p)
			}
		}
		return true
	})
}

// reachesAlloc reports whether any tainted value reaches an allocation
// size in the scope — the param-mode summary question.
func (s *taintScope) reachesAlloc() bool {
	found := false
	s.allocSites(func(token.Pos, *types.Func, int) { found = true })
	return found
}
