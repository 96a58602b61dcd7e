// Package ctxflow requires the experiment-driver layers (internal/eval,
// internal/experiments) to keep multistart sweeps cancellable.
//
// The paper's protocols are long — "the equivalent of nearly 10,000 starts
// for each test case" — and the harness's whole fault-tolerance story (PR 1)
// rests on cancellation reaching every loop that runs starts. An exported
// function in the driver packages whose body loops over heuristic starts
// must therefore accept a context.Context — directly, or via an options
// struct carrying a Ctx field — and actually consult it: either the
// function checks ctx.Done()/ctx.Err() itself, or each starts loop hands
// the context (or the options value that carries it) to the callee doing
// the work.
//
// "Loops over starts" is detected by callee name: a loop whose body calls
// Heuristic.Run or one of the multistart drivers (Multistart,
// RunMultistart, BestOfK, ...) is a starts loop. Unexported helpers and
// packages outside the driver layer are not constrained.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"hgpart/internal/lint/analysis"
)

// TargetPackages are the module-relative package roots whose exported
// functions are checked. internal/chaos and cmd/hgchaos join the driver
// layer: retry loops and kill/restart scenario sweeps are long-running by
// design and must stay cancellable the same way multistart sweeps are.
// internal/service and cmd/hgserved join with the cluster work (DESIGN.md
// §12): any exported service entry point that loops over starts — or grows
// one — must keep the job's context threaded through, or a dead client
// could pin a worker forever.
var TargetPackages = []string{
	"cmd/hgchaos",
	"cmd/hgserved",
	"internal/chaos",
	"internal/eval",
	"internal/experiments",
	"internal/portfolio",
	"internal/service",
}

// startCallNames are callee names that run heuristic starts. A loop body
// containing one of these calls makes the loop a "starts loop".
var startCallNames = map[string]bool{
	"Run": true, "RunPruned": true, "runAttempt": true, "runStart": true,
	"runStarts": true, "Multistart": true, "RunMultistart": true,
	"BestOfK": true, "BestWithinBudget": true, "PrunedMultistart": true,
	"EvaluateConfigurationsCtx": true, "minAvgCell": true,
}

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "exported functions in internal/eval and internal/experiments that loop over starts must accept and consult a context.Context",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathMatchesAny(pass.Pkg.Path(), TargetPackages) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	loops := startsLoops(pass, fd.Body)
	if len(loops) == 0 {
		return
	}

	ctxParams := map[types.Object]bool{}
	carriers := map[types.Object]bool{}
	collect := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, field := range fields.List {
			for _, name := range field.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj == nil {
					continue
				}
				switch {
				case isContext(obj.Type()):
					ctxParams[obj] = true
				case carriesContext(obj.Type()):
					carriers[obj] = true
				}
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)

	if len(ctxParams) == 0 && len(carriers) == 0 {
		pass.Reportf(fd.Name.Pos(),
			"%s loops over heuristic starts but accepts no context.Context (directly or via an options struct with a Ctx field); long sweeps must be cancellable",
			fd.Name.Name)
		return
	}

	// The function as a whole passes when it explicitly consults the
	// context anywhere (ctx.Done/ctx.Err, o.Ctx, o.ctx()).
	if consultsContext(pass, fd.Body, ctxParams, carriers) {
		return
	}
	// Otherwise every starts loop must hand the context (or its carrier) to
	// the callee doing the work.
	for _, loop := range loops {
		if !loopThreadsContext(pass, loop, ctxParams, carriers) {
			pass.Reportf(loop.Pos(),
				"%s runs heuristic starts in a loop that neither checks ctx.Done()/ctx.Err() nor passes the context (or its carrying options value) to the callee; cancellation cannot reach this sweep",
				fd.Name.Name)
		}
	}
}

// startsLoops returns every for/range statement in body whose body contains
// a start-running call (closures included: a loop inside a func literal
// still runs starts on behalf of this function).
func startsLoops(pass *analysis.Pass, body *ast.BlockStmt) []ast.Stmt {
	var loops []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			loopBody = n.Body
		case *ast.RangeStmt:
			loopBody = n.Body
		default:
			return true
		}
		if containsStartCall(pass, loopBody) {
			loops = append(loops, n.(ast.Stmt))
		}
		return true
	})
	return loops
}

func containsStartCall(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if startCallNames[fun.Name] {
				found = true
			}
		case *ast.SelectorExpr:
			if startCallNames[fun.Sel.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// consultsContext reports an explicit context consultation anywhere in n:
// ctx.Done()/ctx.Err() on a context parameter, a carrier's .Ctx field, or a
// carrier method whose name mentions ctx.
func consultsContext(pass *analysis.Pass, n ast.Node, ctxParams, carriers map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		sel, ok := m.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[base]
		switch {
		case ctxParams[obj]:
			if sel.Sel.Name == "Done" || sel.Sel.Name == "Err" || sel.Sel.Name == "Deadline" {
				found = true
			}
		case carriers[obj]:
			if sel.Sel.Name == "Ctx" || strings.Contains(strings.ToLower(sel.Sel.Name), "ctx") {
				found = true
			}
		}
		return !found
	})
	return found
}

// loopThreadsContext reports whether, inside the loop, the context or its
// carrier flows into a call: the ctx parameter as an argument, the carrier
// as an argument, or a method invoked on the carrier (which can consult the
// Ctx it carries).
func loopThreadsContext(pass *analysis.Pass, loop ast.Stmt, ctxParams, carriers map[types.Object]bool) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if base, ok := sel.X.(*ast.Ident); ok && carriers[pass.TypesInfo.Uses[base]] {
				found = true
				return false
			}
		}
		for _, arg := range call.Args {
			switch a := arg.(type) {
			case *ast.Ident:
				if ctxParams[pass.TypesInfo.Uses[a]] || carriers[pass.TypesInfo.Uses[a]] {
					found = true
					return false
				}
			case *ast.CallExpr:
				// o.ctx() passed as an argument.
				if sel, ok := a.Fun.(*ast.SelectorExpr); ok {
					if base, ok := sel.X.(*ast.Ident); ok && carriers[pass.TypesInfo.Uses[base]] {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// carriesContext reports whether t (or *t) is a struct with a direct field
// of type context.Context.
func carriesContext(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isContext(st.Field(i).Type()) {
			return true
		}
	}
	return false
}
