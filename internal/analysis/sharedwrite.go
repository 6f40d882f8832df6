package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

const sharedWriteRule = "sharedwrite"

// SharedWrite flags writes to captured state inside worker function
// literals — closures launched with `go` or handed to a level/shard
// runner. A worker that assigns through a captured pointer, slice, or
// map races with its siblings unless the written locations are
// provably disjoint.
//
// The one disjointness argument the analyzer accepts structurally is
// the partitioned-write idiom this codebase is built on: every index on
// the path to the written location is the worker's own parameter
// (`a.Arr[id] = v` inside `func(id CellID) {...}` passed to a runner).
// The runner hands each worker a distinct id, so writes cannot collide.
// Any other captured write needs an explicit //replint:ignore with the
// disjointness reasoning spelled out.
var SharedWrite = &Analyzer{
	Name: sharedWriteRule,
	Doc: "flags assignments to captured variables inside goroutine/level-worker " +
		"function literals, except writes indexed solely by the worker's own " +
		"parameter (the partitioned-write idiom)",
	Run: runSharedWrite,
}

// workerCalleeRE matches the names of functions that fan a callback out
// across goroutines: a function literal passed to one of these runs
// concurrently even though no `go` keyword appears at the call site.
var workerCalleeRE = regexp.MustCompile(`^run(Level|Shard|Chunk|Span|Worker)s?$`)

func runSharedWrite(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, w := range collectWorkers(pass, file) {
			checkWorker(pass, w)
		}
	}
}

// collectWorkers finds the function literals that run concurrently:
// launched in a go statement, passed directly to a worker-spawning
// callee, or bound to a variable that is later launched or passed.
func collectWorkers(pass *Pass, file *ast.File) []*ast.FuncLit {
	// First pass: record funcLits used directly and the objects of
	// identifiers used in a worker position.
	direct := map[*ast.FuncLit]bool{}
	workerObjs := map[types.Object]bool{}
	markArg := func(arg ast.Expr) {
		switch a := arg.(type) {
		case *ast.FuncLit:
			direct[a] = true
		case *ast.Ident:
			if obj := pass.ObjectOf(a); obj != nil {
				workerObjs[obj] = true
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.GoStmt:
			markArg(st.Call.Fun)
		case *ast.CallExpr:
			name := ""
			switch fun := st.Fun.(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			if workerCalleeRE.MatchString(name) {
				for _, arg := range st.Args {
					markArg(arg)
				}
			}
		}
		return true
	})
	// Second pass: resolve marked objects to the funcLits bound to them.
	ast.Inspect(file, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok || i >= len(st.Lhs) {
					continue
				}
				if id, ok := st.Lhs[i].(*ast.Ident); ok {
					if obj := pass.ObjectOf(id); obj != nil && workerObjs[obj] {
						direct[lit] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, v := range st.Values {
				lit, ok := v.(*ast.FuncLit)
				if !ok || i >= len(st.Names) {
					continue
				}
				if obj := pass.ObjectOf(st.Names[i]); obj != nil && workerObjs[obj] {
					direct[lit] = true
				}
			}
		}
		return true
	})
	var out []*ast.FuncLit
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && direct[lit] {
			out = append(out, lit)
		}
		return true
	})
	return out
}

// checkWorker flags captured writes inside one worker funcLit.
func checkWorker(pass *Pass, worker *ast.FuncLit) {
	params := paramObjects(pass, worker)
	var walk func(n ast.Node, params map[types.Object]bool)
	walk = func(n ast.Node, params map[types.Object]bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch st := m.(type) {
			case *ast.FuncLit:
				if st == worker {
					return true
				}
				// A nested literal inherits the worker's concurrency;
				// its own parameters also become blessed indices.
				inner := map[types.Object]bool{}
				for o := range params {
					inner[o] = true
				}
				for o := range paramObjects(pass, st) {
					inner[o] = true
				}
				walk(st.Body, inner)
				return false
			case *ast.AssignStmt:
				if st.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range st.Lhs {
					checkWrite(pass, worker, lhs, params)
				}
			case *ast.IncDecStmt:
				checkWrite(pass, worker, st.X, params)
			}
			return true
		})
	}
	walk(worker.Body, params)
}

// checkWrite reports lhs when its root variable is captured from
// outside the worker and the write is not parameter-partitioned.
func checkWrite(pass *Pass, worker *ast.FuncLit, lhs ast.Expr, params map[types.Object]bool) {
	root := rootObject(pass, lhs)
	if root == nil || root.Name() == "_" {
		return
	}
	// Declared inside the worker literal: worker-local, fine.
	if worker.Pos() <= root.Pos() && root.Pos() < worker.End() {
		return
	}
	if partitionedWrite(pass, lhs, params) {
		return
	}
	pass.Report(lhs.Pos(), sharedWriteRule, fmt.Sprintf(
		"worker goroutine writes captured %s via %s; index every step by the worker's own parameter or document disjointness with //replint:ignore",
		root.Name(), exprString(lhs)))
}

// partitionedWrite reports whether every index on the LHS path is an
// identifier denoting one of the worker's parameters, making sibling
// workers' writes disjoint by construction. A path with no index at
// all (plain field or variable write) is not partitioned.
func partitionedWrite(pass *Pass, lhs ast.Expr, params map[types.Object]bool) bool {
	sawIndex := false
	for {
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			id, ok := e.Index.(*ast.Ident)
			if !ok {
				return false
			}
			obj := pass.ObjectOf(id)
			if obj == nil || !params[obj] {
				return false
			}
			sawIndex = true
			lhs = e.X
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.Ident:
			return sawIndex
		default:
			return false
		}
	}
}

// paramObjects returns the objects declared by the funcLit's parameters.
func paramObjects(pass *Pass, lit *ast.FuncLit) map[types.Object]bool {
	out := map[types.Object]bool{}
	if lit.Type == nil || lit.Type.Params == nil {
		return out
	}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.ObjectOf(name); obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}
