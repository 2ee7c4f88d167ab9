package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the suite's intra-function control-flow graph — the
// machinery behind "released on all paths". It is deliberately small:
// straight-line statements are grouped into blocks, compound statements
// (if/for/range/switch/select) become edges, and function literals are
// opaque (an analyzer builds a separate CFG per literal it cares
// about). goto marks the graph unsupported; the repository does not use
// it on any invariant-carrying path, and analyzers surface the mark
// rather than guessing.

// Action classifies one statement during a path walk.
type Action int

const (
	// ActionNone: the statement neither satisfies nor ends the
	// obligation; the walk continues through it.
	ActionNone Action = iota
	// ActionSatisfy: the obligation is discharged on this path (a
	// release call, an ownership transfer, an fsync before the rename).
	ActionSatisfy
	// ActionExempt: the path ends without the obligation applying (an
	// error-guard return where the acquire failed, panic, os.Exit).
	ActionExempt
)

type cfgBlock struct {
	stmts []ast.Stmt
	succs []*cfgBlock
}

// Loc addresses one statement (or a block entry) in a CFG.
type Loc struct {
	b   *cfgBlock
	idx int
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	entry, exit *cfgBlock
	unsupported bool

	stmtLoc  map[ast.Stmt]Loc
	allStmts []ast.Stmt
	ifThen   map[*ast.IfStmt]*cfgBlock
	ifAfter  map[*ast.IfStmt]*cfgBlock
}

// Unsupported reports whether the body used control flow the graph does
// not model (goto); analyzers should refuse to certify such functions.
func (g *CFG) Unsupported() bool { return g.unsupported }

// Locate returns the location of the innermost recorded statement
// containing n. It fails for nodes in compound-statement headers (an
// acquire in a for-condition) and inside function literals.
func (g *CFG) Locate(n ast.Node) (Loc, bool) {
	for _, s := range g.allStmts {
		if s.Pos() <= n.Pos() && n.End() <= s.End() {
			return g.stmtLoc[s], true
		}
	}
	return Loc{}, false
}

// ThenEntry returns the entry of s's then-branch — where a conditional
// acquire in s's condition starts holding its reference.
func (g *CFG) ThenEntry(s *ast.IfStmt) (Loc, bool) {
	b, ok := g.ifThen[s]
	return Loc{b: b}, ok
}

// AfterIf returns the join point after s — where a negated guard
// (`if !x.tryRef() { return }`) leaves the reference held.
func (g *CFG) AfterIf(s *ast.IfStmt) (Loc, bool) {
	b, ok := g.ifAfter[s]
	return Loc{b: b}, ok
}

// Leaks reports whether some path from l to the function exit passes no
// statement classified ActionSatisfy or ActionExempt. startAfter skips
// the statement at l itself (the acquire statement). Cycles are walked
// once: a path that loops forever never reaches the exit and so never
// leaks by itself.
func (g *CFG) Leaks(l Loc, startAfter bool, classify func(ast.Stmt) Action) bool {
	if l.b == nil {
		return true
	}
	idx := l.idx
	if startAfter {
		idx++
	}
	seen := map[*cfgBlock]bool{}
	var walk func(b *cfgBlock, from int) bool
	walk = func(b *cfgBlock, from int) bool {
		if from == 0 {
			if seen[b] {
				return false
			}
			seen[b] = true
		}
		for i := from; i < len(b.stmts); i++ {
			switch classify(b.stmts[i]) {
			case ActionSatisfy, ActionExempt:
				return false
			}
		}
		if b == g.exit {
			return true
		}
		for _, s := range b.succs {
			if walk(s, 0) {
				return true
			}
		}
		return false
	}
	return walk(l.b, idx)
}

// ReachesAvoiding reports whether some path from the function entry
// reaches the statement at target without first passing a statement
// classified ActionSatisfy or ActionExempt. The statement at target
// itself is not classified. This is the forward dual of Leaks: Leaks
// asks "can the obligation escape after this point", ReachesAvoiding
// asks "can this point be reached before the prerequisite" — the shape
// fsyncorder needs for "every path to the rename fsyncs first".
func (g *CFG) ReachesAvoiding(target Loc, classify func(ast.Stmt) Action) bool {
	if target.b == nil {
		return true
	}
	seen := map[*cfgBlock]bool{}
	var walk func(b *cfgBlock) bool
	walk = func(b *cfgBlock) bool {
		if seen[b] {
			return false
		}
		seen[b] = true
		for i, s := range b.stmts {
			if b == target.b && i == target.idx {
				return true
			}
			switch classify(s) {
			case ActionSatisfy, ActionExempt:
				return false
			}
		}
		for _, succ := range b.succs {
			if walk(succ) {
				return true
			}
		}
		return false
	}
	return walk(g.entry)
}

// BuildCFG constructs the graph for one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{
		stmtLoc: map[ast.Stmt]Loc{},
		ifThen:  map[*ast.IfStmt]*cfgBlock{},
		ifAfter: map[*ast.IfStmt]*cfgBlock{},
	}
	g.entry = &cfgBlock{}
	g.exit = &cfgBlock{}
	b := &cfgBuilder{g: g, cur: g.entry}
	b.stmtList(body.List)
	b.edge(b.cur, g.exit) // fall off the end
	return g
}

type loopFrame struct {
	label      string
	breakTo    *cfgBlock
	continueTo *cfgBlock // nil for switch/select frames
}

type cfgBuilder struct {
	g      *CFG
	cur    *cfgBlock
	frames []loopFrame
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

func (b *cfgBuilder) record(s ast.Stmt) {
	loc := Loc{b: b.cur, idx: len(b.cur.stmts)}
	b.cur.stmts = append(b.cur.stmts, s)
	b.g.stmtLoc[s] = loc
	b.g.allStmts = append(b.g.allStmts, s)
}

func (b *cfgBuilder) newBlock() *cfgBlock { return &cfgBlock{} }

// startUnreachable parks the builder on a fresh block with no
// predecessors, for code after return/break/continue.
func (b *cfgBuilder) startUnreachable() { b.cur = b.newBlock() }

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

func (b *cfgBuilder) findFrame(label string, needContinue bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if label != "" && f.label != label {
			continue
		}
		if needContinue && f.continueTo == nil {
			continue
		}
		return f
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			b.record(s.Init)
		}
		cond := b.cur
		thenB := b.newBlock()
		after := b.newBlock()
		b.g.ifThen[s] = thenB
		b.g.ifAfter[s] = after
		b.edge(cond, thenB)
		b.cur = thenB
		b.stmtList(s.Body.List)
		b.edge(b.cur, after)
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(cond, elseB)
			b.cur = elseB
			b.stmt(s.Else, "")
			b.edge(b.cur, after)
		} else {
			b.edge(cond, after)
		}
		b.cur = after
	case *ast.ForStmt:
		if s.Init != nil {
			b.record(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		cont := head
		if s.Post != nil {
			cont = b.newBlock()
		}
		b.edge(b.cur, head)
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		b.frames = append(b.frames, loopFrame{label: label, breakTo: after, continueTo: cont})
		b.cur = body
		b.stmtList(s.Body.List)
		if s.Post != nil {
			b.edge(b.cur, cont)
			b.cur = cont
			b.record(s.Post)
		}
		b.edge(b.cur, head)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after
	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.edge(b.cur, head)
		b.edge(head, body)
		b.edge(head, after)
		b.frames = append(b.frames, loopFrame{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, head)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var initStmt ast.Stmt
		var clauses []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			initStmt = sw.Init
			clauses = sw.Body.List
		case *ast.TypeSwitchStmt:
			initStmt = sw.Init
			if sw.Assign != nil {
				b.record(sw.Assign)
			}
			clauses = sw.Body.List
		}
		if initStmt != nil {
			b.record(initStmt)
		}
		cond := b.cur
		after := b.newBlock()
		b.frames = append(b.frames, loopFrame{label: label, breakTo: after})
		hasDefault := false
		bodies := make([]*cfgBlock, len(clauses))
		for i := range clauses {
			bodies[i] = b.newBlock()
		}
		for i, cl := range clauses {
			cc := cl.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			b.edge(cond, bodies[i])
			b.cur = bodies[i]
			fellThrough := false
			for _, cs := range cc.Body {
				if br, ok := cs.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
					if i+1 < len(bodies) {
						b.edge(b.cur, bodies[i+1])
					}
					fellThrough = true
					b.startUnreachable()
					continue
				}
				b.stmt(cs, "")
			}
			if !fellThrough {
				b.edge(b.cur, after)
			}
		}
		if !hasDefault {
			b.edge(cond, after)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after
	case *ast.SelectStmt:
		cond := b.cur
		after := b.newBlock()
		b.frames = append(b.frames, loopFrame{label: label, breakTo: after})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			cb := b.newBlock()
			b.edge(cond, cb)
			b.cur = cb
			if cc.Comm != nil {
				b.record(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, after)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after
	case *ast.LabeledStmt:
		b.stmt(s.Stmt, s.Label.Name)
	case *ast.ReturnStmt:
		b.record(s)
		b.edge(b.cur, b.g.exit)
		b.startUnreachable()
	case *ast.BranchStmt:
		if s.Tok != token.FALLTHROUGH {
			// Recorded so path walks can classify the jump itself (an
			// exempt error-guard body may consist of just a continue).
			b.record(s)
		}
		switch s.Tok {
		case token.BREAK:
			if f := b.findFrame(labelName(s.Label), false); f != nil {
				b.edge(b.cur, f.breakTo)
			} else {
				b.g.unsupported = true
			}
			b.startUnreachable()
		case token.CONTINUE:
			if f := b.findFrame(labelName(s.Label), true); f != nil {
				b.edge(b.cur, f.continueTo)
			} else {
				b.g.unsupported = true
			}
			b.startUnreachable()
		case token.GOTO:
			b.g.unsupported = true
			b.edge(b.cur, b.g.exit)
			b.startUnreachable()
		case token.FALLTHROUGH:
			// Only legal as the final statement of a case clause, which
			// the switch builder intercepts; anything else is a parse
			// error upstream.
			b.g.unsupported = true
		}
	default:
		// Declarations, assignments, expression statements, sends,
		// defers, go statements, inc/dec, empty.
		b.record(s)
	}
}

func labelName(l *ast.Ident) string {
	if l == nil {
		return ""
	}
	return l.Name
}
