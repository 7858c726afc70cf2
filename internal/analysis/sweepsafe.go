package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SweepSafe statically enforces the worker-pool write discipline from
// internal/pool: a closure handed to pool.For (or to a helper named
// parallelFor) runs concurrently on an unspecified worker, so the only
// write it may make to state captured from outside the closure is an
// index-addressed slot store — slots[i] = ..., where i is the closure's own index parameter.
// Everything else (captured scalar mutation, appends to captured slices,
// captured-map writes, stores at any other index, writes through a
// captured pointer, channel sends) either races outright or makes the
// merged result depend on worker scheduling, breaking the
// worker-count-invariance that TestSweepWorkerCountInvariance can only
// sample dynamically and only on executed paths.
//
// Writes to variables declared inside the closure are loop-local scratch
// and always fine, as is writing through a local pointer previously
// aimed at a slot (out := &outs[i]; out.field = ...).
var SweepSafe = &Analyzer{
	Name: "sweepsafe",
	Doc:  "non-slot writes to captured state inside a pool.For or parallelFor closure (breaks worker-count invariance)",
	Run:  runSweepSafe,
}

func runSweepSafe(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			lit, ok := sweepClosureArg(pass, call)
			if !ok {
				return true
			}
			checkSweepClosure(pass, call, lit)
			return true
		})
	}
}

// sweepClosureArg matches a pool.For(n, func(i int) error {...}) or
// parallelFor(n, ...) call and returns the closure literal. Matching is
// by callee plus shape (a function literal with a single int parameter as
// the last argument): the module's pool.For, or any function named
// parallelFor, so the check follows the convention, not one symbol.
func sweepClosureArg(pass *Pass, call *ast.CallExpr) (*ast.FuncLit, bool) {
	info := pass.Info
	f := calleeFunc(info, call)
	if f == nil || len(call.Args) == 0 {
		return nil, false
	}
	poolFor := f.Name() == "For" && f.Pkg() != nil && f.Pkg().Path() == pass.Module+"/internal/pool"
	if !poolFor && f.Name() != "parallelFor" {
		return nil, false
	}
	lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
	if !ok {
		return nil, false
	}
	// The signature, not the AST field list, carries the real parameter
	// count: func(i, j int) is one field with two names.
	tv, ok := info.Types[lit]
	if !ok {
		return nil, false
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok || sig.Params().Len() != 1 {
		return nil, false
	}
	b, ok := sig.Params().At(0).Type().Underlying().(*types.Basic)
	if !ok || b.Kind() != types.Int {
		return nil, false
	}
	return lit, true
}

// checkSweepClosure walks one closure body and reports every write whose
// target is captured state not addressed by the closure's index param.
func checkSweepClosure(pass *Pass, call *ast.CallExpr, lit *ast.FuncLit) {
	var idxObj types.Object
	if names := lit.Type.Params.List[0].Names; len(names) == 1 {
		idxObj = pass.Info.Defs[names[0]]
	}
	// A variable is closure-local iff its declaration lies inside the
	// literal; everything else (enclosing locals, package vars) is shared.
	local := func(obj types.Object) bool {
		return obj != nil && obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End()
	}

	pool := exprString(call.Fun)
	report := func(n ast.Node, target ast.Expr, form string) {
		pass.Report(Finding{
			Pos: n.Pos(),
			Message: form + " " + exprString(target) +
				" captured by a " + pool + " closure: cell writes must be index-addressed slot stores (slots[i] = ...)",
			Related: []RelatedPos{{Pos: call.Pos(), Message: "closure passed to " + pool + " here"}},
			Fix:     "precompute a slots slice sized to n, write only slots[i] inside the closure, and merge serially in index order after " + pool + " returns",
		})
	}
	checkWrite := func(n ast.Node, target ast.Expr) {
		root, slotAddressed, mapWrite := sweepWritePath(pass.Info, target, idxObj)
		if root == nil || local(root) || root == idxObj {
			return
		}
		switch {
		case mapWrite:
			report(n, target, "write to map")
		case !slotAddressed:
			report(n, target, "non-slot write to")
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				lhs := ast.Unparen(lhs)
				if id, ok := lhs.(*ast.Ident); ok {
					if id.Name == "_" || pass.Info.Defs[id] != nil {
						continue // declaration or discard, not a shared write
					}
					// Appends get their own message: they are the most
					// common accidental form (element order leaks worker
					// scheduling even when growth happens not to race).
					if len(n.Rhs) == len(n.Lhs) {
						if c, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && isBuiltinAppend(pass.Info, c) {
							if obj := pass.Info.ObjectOf(id); obj != nil && !local(obj) && obj != idxObj {
								report(n, lhs, "append to slice")
								continue
							}
						}
					}
				}
				checkWrite(n, lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(n, ast.Unparen(n.X))
		case *ast.SendStmt:
			if root, _, _ := sweepWritePath(pass.Info, ast.Unparen(n.Chan), idxObj); root != nil && !local(root) {
				report(n, n.Chan, "send on channel")
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				if n.Key != nil {
					checkWrite(n, ast.Unparen(n.Key))
				}
				if n.Value != nil {
					checkWrite(n, ast.Unparen(n.Value))
				}
			}
		}
		return true
	})
}

// sweepWritePath resolves the access path of a write target. It returns
// the root variable the path starts from, whether some step indexes a
// slice/array by exactly the closure's index parameter (the slot-store
// exemption), and whether some step writes through a map (never exempt:
// concurrent map writes race regardless of key).
func sweepWritePath(info *types.Info, e ast.Expr, idxObj types.Object) (root types.Object, slotAddressed, mapWrite bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := info.ObjectOf(x)
			if _, ok := obj.(*types.Var); !ok {
				return nil, slotAddressed, mapWrite
			}
			return obj, slotAddressed, mapWrite
		case *ast.IndexExpr:
			if tv, ok := info.Types[x.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					mapWrite = true
				} else if id, ok := ast.Unparen(x.Index).(*ast.Ident); ok && idxObj != nil && info.ObjectOf(id) == idxObj {
					slotAddressed = true
				}
			}
			e = ast.Unparen(x.X)
		case *ast.SelectorExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		case *ast.ParenExpr:
			e = ast.Unparen(x.X)
		default:
			return nil, slotAddressed, mapWrite
		}
	}
}
