package analysis

import (
	"go/ast"
	"go/token"
)

// This file builds a per-function control-flow graph over the Go AST. The
// CFG is the substrate the flow-sensitive analyzers (pinflow, snapflow)
// run their dataflow on: blocks hold straight-line statements
// in execution order, and edges carry the branch condition that selects
// them, so a transfer function can refine facts along an `err != nil`
// edge the way the type system never could.
//
// The graph is deliberately syntactic: it is built from the AST alone with
// no type information, which keeps it testable on bare parsed snippets.
// Function-literal bodies are NOT expanded into the enclosing graph — a
// closure is part of whatever atomic statement mentions it, and the rules
// treat its body conservatively.

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks lists every block in roughly source order. Blocks[0] is Entry.
	Blocks []*CFGBlock
	// Entry is the block control enters the function through.
	Entry *CFGBlock
	// Exit is the synthetic block every return (and the fall-off-the-end
	// path) jumps to. It holds no nodes.
	Exit *CFGBlock
	// PanicExit is the synthetic block explicit panic(...) statements jump
	// to. It is separate from Exit so analyses can decide whether leaks on
	// explicit panic paths are worth reporting.
	PanicExit *CFGBlock
}

// CFGBlock is a maximal straight-line run of atomic nodes.
type CFGBlock struct {
	// Index is the block's position in CFG.Blocks.
	Index int
	// Nodes holds the block's statements and condition expressions in
	// execution order. Every element is an atomic statement, an
	// expression (an if/for condition or switch tag), or an
	// *ast.RangeStmt, whose Body is NOT part of the node — use
	// inspectShallow to walk a node without spilling into nested blocks.
	Nodes []ast.Node
	// Succs and Preds are the outgoing and incoming edges.
	Succs []*CFGEdge
	Preds []*CFGEdge
}

// CFGEdge is one control transfer. When Cond is non-nil the edge is taken
// only when Cond evaluates to CondTrue.
type CFGEdge struct {
	From, To *CFGBlock
	Cond     ast.Expr
	CondTrue bool
}

// BuildCFG constructs the control-flow graph of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: make(map[string]*CFGBlock),
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cfg.PanicExit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	// Falling off the end of the body is an implicit return.
	b.jump(b.cfg.Exit, nil, false)
	return b.cfg
}

// loopFrame records the break/continue targets of one enclosing loop,
// switch, or select statement.
type loopFrame struct {
	label        string
	breakTarget  *CFGBlock
	contTarget   *CFGBlock // nil for switch/select frames
	isLoopOrSwch bool
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *CFGBlock // nil while the current point is unreachable
	loops  []loopFrame
	labels map[string]*CFGBlock
	// fall is the entry block of the next switch case, the target of a
	// fallthrough statement while a case body is being built.
	fall *CFGBlock
	// pendingLabel is the label to attach to the next loop/switch built,
	// set by a labeled statement.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	blk := &CFGBlock{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// add appends an atomic node to the current block, materializing an
// unreachable block if control cannot get here (so dead code is still
// analyzed, with bottom facts).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// jump adds an edge from the current block to dst and leaves the current
// point unreachable. A nil current block is a no-op.
func (b *cfgBuilder) jump(dst *CFGBlock, cond ast.Expr, condTrue bool) {
	if b.cur == nil {
		return
	}
	e := &CFGEdge{From: b.cur, To: dst, Cond: cond, CondTrue: condTrue}
	b.cur.Succs = append(b.cur.Succs, e)
	dst.Preds = append(dst.Preds, e)
	b.cur = nil
}

// branch adds a conditional edge without abandoning the current block.
func (b *cfgBuilder) branch(dst *CFGBlock, cond ast.Expr, condTrue bool) {
	if b.cur == nil {
		return
	}
	e := &CFGEdge{From: b.cur, To: dst, Cond: cond, CondTrue: condTrue}
	b.cur.Succs = append(b.cur.Succs, e)
	dst.Preds = append(dst.Preds, e)
}

// labelBlock returns (creating on first use) the block a label names, so
// forward gotos resolve.
func (b *cfgBuilder) labelBlock(name string) *CFGBlock {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the statement being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.jump(lb, nil, false)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit, nil, false)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.GOTO:
			b.jump(b.labelBlock(s.Label.Name), nil, false)
		case token.BREAK:
			if t := b.findFrame(s.Label, false); t != nil {
				b.jump(t, nil, false)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if t := b.findFrame(s.Label, true); t != nil {
				b.jump(t, nil, false)
			} else {
				b.cur = nil
			}
		case token.FALLTHROUGH:
			if b.fall != nil {
				b.jump(b.fall, nil, false)
			} else {
				b.cur = nil
			}
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		thenB := b.newBlock()
		after := b.newBlock()
		b.branch(thenB, s.Cond, true)
		if s.Else != nil {
			elseB := b.newBlock()
			b.jump(elseB, s.Cond, false)
			b.cur = elseB
			b.stmt(s.Else)
			b.jump(after, nil, false)
		} else {
			b.jump(after, s.Cond, false)
		}
		b.cur = thenB
		b.stmtList(s.Body.List)
		b.jump(after, nil, false)
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.jump(head, nil, false)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
			b.branch(body, s.Cond, true)
			b.jump(after, s.Cond, false)
		} else {
			b.jump(body, nil, false)
		}
		b.loops = append(b.loops, loopFrame{label: label, breakTarget: after, contTarget: post, isLoopOrSwch: true})
		b.cur = body
		b.stmtList(s.Body.List)
		b.jump(post, nil, false)
		if s.Post != nil {
			b.cur = post
			b.add(s.Post)
			b.jump(head, nil, false)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.jump(head, nil, false)
		b.cur = head
		// The RangeStmt itself is the head node: inspectShallow exposes
		// X/Key/Value without descending into Body.
		b.add(s)
		b.branch(body, nil, false)
		b.jump(after, nil, false)
		b.loops = append(b.loops, loopFrame{label: label, breakTarget: after, contTarget: head, isLoopOrSwch: true})
		b.cur = body
		b.stmtList(s.Body.List)
		b.jump(head, nil, false)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(label, s.Body.List, func(c ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			var tests []ast.Node
			for _, e := range cc.List {
				tests = append(tests, e)
			}
			return tests, cc.Body, cc.List == nil
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(label, s.Body.List, func(c ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			cc := c.(*ast.CaseClause)
			return nil, cc.Body, cc.List == nil
		})

	case *ast.SelectStmt:
		label := b.takeLabel()
		after := b.newBlock()
		head := b.cur
		if head == nil {
			head = b.newBlock()
			b.cur = head
		}
		b.loops = append(b.loops, loopFrame{label: label, breakTarget: after})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			entry := b.newBlock()
			b.cur = head
			b.branch(entry, nil, false)
			b.cur = entry
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jump(after, nil, false)
		}
		b.loops = b.loops[:len(b.loops)-1]
		// A select{} with no cases blocks forever.
		if len(s.Body.List) == 0 {
			b.cur = nil
		} else {
			b.cur = after
		}

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.jump(b.cfg.PanicExit, nil, false)
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, Decl, IncDec, Send, Defer, Go: atomic.
		b.add(s)
	}
}

// switchClauses builds the shared clause structure of switch and type
// switch: the current block fans out to every case entry (and to after,
// when there is no default), bodies run to after, and fallthrough chains
// to the next body.
func (b *cfgBuilder) switchClauses(label string, clauses []ast.Stmt, split func(ast.Stmt) (tests []ast.Node, body []ast.Stmt, isDefault bool)) {
	after := b.newBlock()
	head := b.cur
	if head == nil {
		head = b.newBlock()
	}
	entries := make([]*CFGBlock, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		entries[i] = b.newBlock()
		tests, _, isDef := split(c)
		if isDef {
			hasDefault = true
		}
		b.cur = head
		for _, t := range tests {
			b.add(t)
		}
		b.branch(entries[i], nil, false)
	}
	b.cur = head
	if !hasDefault {
		b.branch(after, nil, false)
	}
	b.loops = append(b.loops, loopFrame{label: label, breakTarget: after, isLoopOrSwch: true})
	for i, c := range clauses {
		_, body, _ := split(c)
		prevFall := b.fall
		if i+1 < len(clauses) {
			b.fall = entries[i+1]
		} else {
			b.fall = nil
		}
		b.cur = entries[i]
		b.stmtList(body)
		b.jump(after, nil, false)
		b.fall = prevFall
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

// findFrame resolves a break or continue target, optionally by label.
func (b *cfgBuilder) findFrame(label *ast.Ident, isContinue bool) *CFGBlock {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := b.loops[i]
		if label != nil && f.label != label.Name {
			continue
		}
		if isContinue {
			if f.contTarget != nil {
				return f.contTarget
			}
			if label != nil {
				return nil
			}
			continue
		}
		return f.breakTarget
	}
	return nil
}

// isPanicCall reports whether e is a call to the builtin panic. Purely
// syntactic: a shadowed panic identifier would be misread, which no code
// in this repository does.
func isPanicCall(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// inspectShallow walks one CFG node the way ast.Inspect would, except that
// for a RangeStmt head only the range expression and iteration variables
// are visited — the body lives in other blocks and must not be
// re-interpreted here.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		if r.Key != nil {
			ast.Inspect(r.Key, fn)
		}
		if r.Value != nil {
			ast.Inspect(r.Value, fn)
		}
		ast.Inspect(r.X, fn)
		return
	}
	ast.Inspect(n, fn)
}

// shallowWalkWithStack is walkWithStack restricted the same way
// inspectShallow is: a RangeStmt head exposes Key/Value/X only.
func shallowWalkWithStack(n ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	if r, ok := n.(*ast.RangeStmt); ok {
		if r.Key != nil {
			walkWithStack(r.Key, fn)
		}
		if r.Value != nil {
			walkWithStack(r.Value, fn)
		}
		walkWithStack(r.X, fn)
		return
	}
	walkWithStack(n, fn)
}
