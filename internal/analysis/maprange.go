package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// mapRangePackages are the module-relative package subtrees in which
// unordered map iteration is a determinism hazard: everything on the
// bit-reproducible path from the embedder to the router.
var mapRangePackages = []string{
	"internal/embed",
	"internal/timing",
	"internal/core",
	"internal/flow",
	"internal/legal",
	"internal/place",
	"internal/route",
}

// MapRange flags `for range` over a map in the determinism-critical
// packages. Go randomizes map iteration order per run, so any loop that
// feeds an ordered decision — appending to a slice, picking a max with
// an ID tie, seeding a queue — makes results differ between runs and
// breaks the run-to-run reproducibility contract.
//
// Two shapes are recognized as safe and not flagged:
//
//   - collect-then-sort: the body only collects keys (or values) into a
//     slice that a sort.XXX / slices.Sort call in the same block orders
//     before any other use;
//   - order-insensitive bodies: every statement only writes map/set
//     entries (without reading the written map), deletes keys, bumps
//     integer counters, or sets booleans — commutative effects whose
//     outcome cannot depend on iteration order.
const mapRangeRule = "maprange"

var MapRange = &Analyzer{
	Name: mapRangeRule,
	Doc: "flags `for range` over maps in determinism-critical packages " +
		"(internal/{embed,timing,core,flow,legal,place,route}) unless keys are " +
		"collected and sorted first, or the loop body is provably order-insensitive " +
		"(map/set writes, deletes, integer counters, boolean flags only)",
	Run: runMapRange,
}

func runMapRange(pass *Pass) {
	if !mapRangeApplies(pass.Pkg.Path) {
		return
	}
	for _, file := range pass.Pkg.Files {
		mr := &mapRangeChecker{pass: pass}
		mr.walkBlockOwner(file)
	}
}

func mapRangeApplies(path string) bool {
	i := strings.Index(path, "/")
	if i < 0 {
		return false
	}
	rel := path[i+1:] // strip the module path segment
	for _, p := range mapRangePackages {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

type mapRangeChecker struct {
	pass *Pass
}

// walkBlockOwner walks the file, keeping track of each statement's
// enclosing statement list so collect-then-sort can look at the
// statements that follow a range loop.
func (mr *mapRangeChecker) walkBlockOwner(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		var stmts []ast.Stmt
		switch b := n.(type) {
		case *ast.BlockStmt:
			stmts = b.List
		case *ast.CaseClause:
			stmts = b.Body
		case *ast.CommClause:
			stmts = b.Body
		default:
			return true
		}
		for i, s := range stmts {
			if rng, ok := s.(*ast.RangeStmt); ok {
				mr.checkRange(rng, stmts[i+1:])
			}
		}
		return true
	})
}

func (mr *mapRangeChecker) checkRange(rng *ast.RangeStmt, rest []ast.Stmt) {
	t := mr.pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if mr.isCollectThenSort(rng, rest) {
		return
	}
	ins := &insensitivity{pass: mr.pass, rangedMap: rootObject(mr.pass, rng.X)}
	ins.declareLoopVars(rng)
	if ins.blockOK(rng.Body) {
		return
	}
	what := exprString(rng.X)
	mr.pass.Report(rng.Pos(), mapRangeRule, fmt.Sprintf(
		"iterates map %s in nondeterministic order%s; sort the keys first or make the body order-insensitive",
		what, ins.becauseSuffix()))
}

// isCollectThenSort recognizes the canonical deterministic idiom:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Slice(keys, ...)        // or sort.Ints / slices.Sort / ...
//
// The body must consist solely of appends of the loop variables into
// local slices, and each such slice must reach a sort call in the
// trailing statements of the same block before any other use.
func (mr *mapRangeChecker) isCollectThenSort(rng *ast.RangeStmt, rest []ast.Stmt) bool {
	var collected []types.Object
	for _, s := range rng.Body.List {
		as, ok := s.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
			return false
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltin(mr.pass, call.Fun, "append") || len(call.Args) < 2 || call.Ellipsis.IsValid() {
			return false
		}
		dst, ok := call.Args[0].(*ast.Ident)
		if !ok || dst.Name != lhs.Name {
			return false
		}
		obj := mr.pass.ObjectOf(lhs)
		if obj == nil {
			return false
		}
		collected = append(collected, obj)
	}
	if len(collected) == 0 {
		return false
	}
	for _, obj := range collected {
		if !sortedBeforeUse(mr.pass, obj, rest) {
			return false
		}
	}
	return true
}

// sortedBeforeUse scans the statements after the loop for the first one
// mentioning obj and accepts only if that statement is (or contains,
// before any other use) a sort call over obj.
func sortedBeforeUse(pass *Pass, obj types.Object, rest []ast.Stmt) bool {
	for _, s := range rest {
		if !mentionsObject(pass, s, obj) {
			continue
		}
		sorted := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSortCall(call) {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := arg.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
					sorted = true
				}
			}
			return true
		})
		return sorted
	}
	return false
}

func isSortCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	return pkg.Name == "sort" || pkg.Name == "slices"
}

// insensitivity is the conservative order-insensitive-body check. It
// accepts only statements whose effects commute across iterations:
// writes to map entries (when the right-hand side does not read the
// written map), deletes, integer counter updates, boolean flag stores
// of constants, and control flow composed of the same. Any function
// call with unknown effects, slice append, float accumulation, break,
// or return makes the body order-sensitive.
type insensitivity struct {
	pass      *Pass
	rangedMap types.Object
	// locals are objects declared inside the loop body (plus the loop
	// variables): per-iteration state that may be freely written.
	locals map[types.Object]bool
	reason string
}

func (in *insensitivity) becauseSuffix() string {
	if in.reason == "" {
		return ""
	}
	return " (" + in.reason + ")"
}

func (in *insensitivity) fail(n ast.Node, why string) bool {
	if in.reason == "" {
		in.reason = why
	}
	_ = n
	return false
}

func (in *insensitivity) declareLoopVars(rng *ast.RangeStmt) {
	in.locals = map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := in.pass.ObjectOf(id); obj != nil {
				in.locals[obj] = true
			}
		}
	}
}

func (in *insensitivity) blockOK(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if !in.stmtOK(s) {
			return false
		}
	}
	return true
}

func (in *insensitivity) stmtOK(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.AssignStmt:
		return in.assignOK(st)
	case *ast.IncDecStmt:
		return in.incDecOK(st)
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok && isBuiltin(in.pass, call.Fun, "delete") {
			return true
		}
		return in.fail(st, "calls with side effects in the body")
	case *ast.IfStmt:
		if st.Init != nil && !in.stmtOK(st.Init) {
			return false
		}
		if !in.pureExpr(st.Cond) {
			return in.fail(st.Cond, "impure loop condition")
		}
		if !in.blockOK(st.Body) {
			return false
		}
		if st.Else != nil {
			return in.stmtOK(st.Else)
		}
		return true
	case *ast.BlockStmt:
		return in.blockOK(st)
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return in.fail(st, "declaration in the body")
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				return in.fail(st, "declaration in the body")
			}
			for _, v := range vs.Values {
				if !in.pureExpr(v) {
					return in.fail(v, "impure initializer")
				}
			}
			for _, name := range vs.Names {
				if obj := in.pass.ObjectOf(name); obj != nil {
					in.locals[obj] = true
				}
			}
		}
		return true
	case *ast.BranchStmt:
		if st.Tok == token.CONTINUE {
			return true
		}
		return in.fail(st, "order-dependent control flow (break/goto)")
	case *ast.EmptyStmt:
		return true
	default:
		return in.fail(s, "statement with order-dependent effects")
	}
}

// incDecOK accepts x++ / x-- on per-iteration locals, on outer integer
// counters (increments commute), and on integer map elements.
func (in *insensitivity) incDecOK(st *ast.IncDecStmt) bool {
	if id, ok := st.X.(*ast.Ident); ok {
		obj := in.pass.ObjectOf(id)
		if obj != nil && in.locals[obj] {
			return true
		}
		t := in.pass.TypeOf(id)
		if t != nil && isInteger(t) {
			return true
		}
		return in.fail(st, fmt.Sprintf("writes outer variable %s", id.Name))
	}
	if ix, ok := st.X.(*ast.IndexExpr); ok {
		xt := in.pass.TypeOf(ix.X)
		if xt != nil {
			if mt, isMap := xt.Underlying().(*types.Map); isMap && isInteger(mt.Elem()) && in.pureExpr(ix.Index) {
				return true
			}
		}
	}
	return in.fail(st, "non-commutative increment target")
}

func (in *insensitivity) assignOK(as *ast.AssignStmt) bool {
	if as.Tok == token.DEFINE {
		// New per-iteration locals; initializers must still be pure.
		for _, r := range as.Rhs {
			if !in.pureExpr(r) {
				return in.fail(r, "impure initializer")
			}
		}
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				if obj := in.pass.ObjectOf(id); obj != nil {
					in.locals[obj] = true
				}
			}
		}
		return true
	}
	for i, l := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else {
			rhs = as.Rhs[0]
		}
		if !in.lhsOK(l, rhs, as) {
			return false
		}
	}
	return true
}

// lhsOK accepts one assignment target under commutativity rules.
func (in *insensitivity) lhsOK(l, rhs ast.Expr, as *ast.AssignStmt) bool {
	if id, ok := l.(*ast.Ident); ok {
		if id.Name == "_" {
			return true
		}
		obj := in.pass.ObjectOf(id)
		if obj != nil && in.locals[obj] {
			if !in.pureExpr(rhs) {
				return in.fail(rhs, "impure right-hand side")
			}
			return true
		}
		// Outer variable: allow integer counter updates and constant
		// boolean stores — both order-insensitive.
		t := in.pass.TypeOf(id)
		if t != nil && isIntegerCommutative(as.Tok) && isInteger(t) && in.pureExpr(rhs) {
			return true
		}
		if t != nil && as.Tok == token.ASSIGN && isBool(t) && isConstExpr(in.pass, rhs) {
			return true
		}
		return in.fail(l, fmt.Sprintf("writes outer variable %s", id.Name))
	}
	if ix, ok := l.(*ast.IndexExpr); ok {
		xt := in.pass.TypeOf(ix.X)
		if xt != nil {
			if _, isMap := xt.Underlying().(*types.Map); isMap {
				if !in.pureExpr(ix.Index) {
					return in.fail(ix.Index, "impure map key")
				}
				written := rootObject(in.pass, ix.X)
				if as.Tok == token.ASSIGN {
					if written != nil && exprMentions(in.pass, rhs, written) {
						return in.fail(rhs, "map write reads the written map")
					}
					if !in.pureExpr(rhs) {
						return in.fail(rhs, "impure right-hand side")
					}
					return true
				}
				if isIntegerCommutative(as.Tok) {
					mt := xt.Underlying().(*types.Map)
					if isInteger(mt.Elem()) && in.pureExpr(rhs) {
						return true
					}
				}
				return in.fail(as, "non-commutative map update")
			}
		}
		return in.fail(l, "indexed write to non-map")
	}
	return in.fail(l, "write through a pointer or selector")
}

// pureExpr accepts side-effect-free expressions: literals, identifiers,
// selectors, index reads, arithmetic, comparisons, conversions of the
// same, and calls to len/cap.
func (in *insensitivity) pureExpr(e ast.Expr) bool {
	switch ex := e.(type) {
	case nil:
		return true
	case *ast.BasicLit, *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return in.pureExpr(ex.X)
	case *ast.IndexExpr:
		return in.pureExpr(ex.X) && in.pureExpr(ex.Index)
	case *ast.BinaryExpr:
		return in.pureExpr(ex.X) && in.pureExpr(ex.Y)
	case *ast.UnaryExpr:
		return ex.Op != token.ARROW && in.pureExpr(ex.X)
	case *ast.ParenExpr:
		return in.pureExpr(ex.X)
	case *ast.StarExpr:
		return in.pureExpr(ex.X)
	case *ast.CallExpr:
		if isBuiltin(in.pass, ex.Fun, "len") || isBuiltin(in.pass, ex.Fun, "cap") {
			return len(ex.Args) == 1 && in.pureExpr(ex.Args[0])
		}
		// Type conversions are pure.
		if fn, ok := ex.Fun.(*ast.Ident); ok {
			if obj := in.pass.ObjectOf(fn); obj != nil {
				if _, isType := obj.(*types.TypeName); isType {
					return len(ex.Args) == 1 && in.pureExpr(ex.Args[0])
				}
			}
		}
		return false
	case *ast.TypeAssertExpr:
		return in.pureExpr(ex.X)
	case *ast.CompositeLit:
		for _, el := range ex.Elts {
			if !in.pureExpr(el) {
				return false
			}
		}
		return true
	case *ast.KeyValueExpr:
		return in.pureExpr(ex.Key) && in.pureExpr(ex.Value)
	default:
		return false
	}
}

func isIntegerCommutative(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true
	}
	return false
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsBoolean != 0
}

func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// isBuiltin reports whether fun denotes the named builtin.
func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := pass.ObjectOf(id)
	if obj == nil {
		return true // unresolved: trust the spelling
	}
	_, isB := obj.(*types.Builtin)
	return isB
}

// rootObject unwraps selectors/indexes/parens/stars down to the base
// identifier's object.
func rootObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch ex := e.(type) {
		case *ast.Ident:
			return pass.ObjectOf(ex)
		case *ast.SelectorExpr:
			e = ex.X
		case *ast.IndexExpr:
			e = ex.X
		case *ast.ParenExpr:
			e = ex.X
		case *ast.StarExpr:
			e = ex.X
		case *ast.CallExpr:
			e = ex.Fun
		default:
			return nil
		}
	}
}

func exprMentions(pass *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func mentionsObject(pass *Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// exprString renders a short source form of e for messages.
func exprString(e ast.Expr) string {
	switch ex := e.(type) {
	case *ast.Ident:
		return ex.Name
	case *ast.SelectorExpr:
		return exprString(ex.X) + "." + ex.Sel.Name
	case *ast.IndexExpr:
		return exprString(ex.X) + "[...]"
	case *ast.CallExpr:
		return exprString(ex.Fun) + "(...)"
	case *ast.ParenExpr:
		return "(" + exprString(ex.X) + ")"
	case *ast.StarExpr:
		return "*" + exprString(ex.X)
	default:
		return "expression"
	}
}
