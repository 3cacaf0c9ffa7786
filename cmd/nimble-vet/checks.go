package main

// The four analyzers. Each operates purely syntactically (go/ast) so the
// tool builds with the standard library alone — the environment has no
// module cache, so golang.org/x/tools/go/analysis is deliberately not used.
// The trade-off is documented in docs/verifier.md: checks are conventions
// over this repo's idioms, not whole-program dataflow.

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Msg)
}

// pkgFile is one parsed file plus the package-level context the checks need.
type pkgFile struct {
	fset *token.FileSet
	file *ast.File
	// pkgVars is the set of package-level var names across the package.
	pkgVars map[string]bool
}

// ---- panicpath -----------------------------------------------------------

// checkPanicPath flags panic calls in request-path packages (internal/serve,
// internal/vm). The serving contract is that faults surface as ErrInternal
// through the recover boundary, never as a process crash; the only allowed
// panics are construction-phase misuse guards explicitly marked with a
// "vet:panic-ok" comment on the panic line, the line above it, or in the
// enclosing function's doc comment.
func checkPanicPath(pf *pkgFile) []Finding {
	var out []Finding
	allowed := map[int]bool{}
	for _, cg := range pf.file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "vet:panic-ok") {
				line := pf.fset.Position(c.Pos()).Line
				allowed[line] = true
				allowed[line+1] = true
			}
		}
	}
	for _, decl := range pf.file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		docAllowed := fd.Doc != nil && strings.Contains(fd.Doc.Text(), "vet:panic-ok")
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				pos := pf.fset.Position(call.Pos())
				if !docAllowed && !allowed[pos.Line] {
					out = append(out, Finding{Pos: pos, Check: "panicpath",
						Msg: fmt.Sprintf("panic in request-path function %s; return an error (the serve layer maps faults to ErrInternal) or mark a construction-phase guard with // vet:panic-ok", fd.Name.Name)})
				}
			}
			return true
		})
	}
	return out
}

// ---- ctxthread -----------------------------------------------------------

// checkCtxThread flags exported methods in the serving layers that block on
// channels (select, receive, send) without taking a context.Context: every
// blocking public wait must be abandonable. Methods whose blocking is
// deliberate and unbounded by design (drain-on-close) carry a "vet:no-ctx"
// doc-comment marker with the justification.
func checkCtxThread(pf *pkgFile) []Finding {
	var out []Finding
	for _, decl := range pf.file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Recv == nil || !fd.Name.IsExported() {
			continue
		}
		if fd.Doc != nil && strings.Contains(fd.Doc.Text(), "vet:no-ctx") {
			continue
		}
		if hasCtxParam(fd.Type) {
			continue
		}
		if blocksOnChannel(fd.Body) {
			out = append(out, Finding{Pos: pf.fset.Position(fd.Pos()), Check: "ctxthread",
				Msg: fmt.Sprintf("exported method %s blocks on a channel but has no context.Context parameter; thread ctx or document with // vet:no-ctx", fd.Name.Name)})
		}
	}
	return out
}

// blocksOnChannel reports whether a statement tree contains a potentially
// unbounded channel wait: a receive, a send, or a select with no default.
// A select WITH a default is a non-blocking poll, so its communication
// operands do not count — but its clause bodies are still scanned.
// Function literals are skipped: a spawned goroutine blocks on its own
// schedule, not the caller's.
func blocksOnChannel(root ast.Node) bool {
	blocking := false
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if blocking {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				blocking = true
				return false
			}
			for _, cl := range s.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok {
					continue
				}
				for _, st := range cc.Body {
					ast.Inspect(st, visit)
				}
			}
			return false
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				blocking = true
			}
		case *ast.SendStmt:
			blocking = true
		}
		return !blocking
	}
	ast.Inspect(root, visit)
	return blocking
}

func hasCtxParam(ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, fld := range ft.Params.List {
		if sel, ok := fld.Type.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "context" && sel.Sel.Name == "Context" {
				return true
			}
		}
	}
	return false
}

// ---- bufretain -----------------------------------------------------------

// checkBufRetain flags kernel functions that store a *tensor.Tensor
// parameter somewhere that outlives the call: a package-level variable, a
// struct field, or an append to either. Kernel arguments are planner-owned
// buffers — the memory plan recycles them the moment the call returns, so
// any retained pointer is a use-after-reuse bug waiting for the next
// invocation.
func checkBufRetain(pf *pkgFile) []Finding {
	var out []Finding
	for _, decl := range pf.file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		params := tensorParams(fd.Type)
		if len(params) == 0 {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if !escapingTarget(lhs, pf.pkgVars) {
					continue
				}
				rhs := as.Rhs[0]
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				}
				if name := retainedParam(rhs, params); name != "" {
					out = append(out, Finding{Pos: pf.fset.Position(as.Pos()), Check: "bufretain",
						Msg: fmt.Sprintf("kernel %s stores planner-owned buffer %q beyond the call; copy the data instead of retaining the pointer", fd.Name.Name, name)})
				}
			}
			return true
		})
	}
	return out
}

// tensorParams returns the names of parameters typed *tensor.Tensor (or
// slices of it).
func tensorParams(ft *ast.FuncType) map[string]bool {
	out := map[string]bool{}
	if ft.Params == nil {
		return out
	}
	for _, fld := range ft.Params.List {
		t := fld.Type
		if sl, ok := t.(*ast.ArrayType); ok {
			t = sl.Elt
		}
		star, ok := t.(*ast.StarExpr)
		if !ok {
			continue
		}
		sel, ok := star.X.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Tensor" {
			continue
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "tensor" {
			continue
		}
		for _, name := range fld.Names {
			out[name.Name] = true
		}
	}
	return out
}

// escapingTarget reports whether an assignment target outlives the call:
// a field selector (x.f) or a package-level variable.
func escapingTarget(lhs ast.Expr, pkgVars map[string]bool) bool {
	switch t := lhs.(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.Ident:
		return pkgVars[t.Name]
	case *ast.IndexExpr:
		return escapingTarget(t.X, pkgVars)
	}
	return false
}

// retainedParam reports the first tensor parameter stored by rhs — the bare
// identifier, or an append onto an escaping slice.
func retainedParam(rhs ast.Expr, params map[string]bool) string {
	switch r := rhs.(type) {
	case *ast.Ident:
		if params[r.Name] {
			return r.Name
		}
	case *ast.CallExpr:
		if id, ok := r.Fun.(*ast.Ident); ok && id.Name == "append" {
			for _, a := range r.Args[1:] {
				if id, ok := a.(*ast.Ident); ok && params[id.Name] {
					return id.Name
				}
			}
		}
	}
	return ""
}

// ---- evalout -------------------------------------------------------------

// checkEvalOut flags Eval function literals in the operator registry that
// name their destination parameter yet call a kernels.X entry point without
// an Into suffix. Naming the destination declares a destination form; an
// Eval that then allocates defeats the §4.3 memory plan: the planned buffer
// goes unused and every invocation allocates anyway. An operator without a
// destination form names the parameter _. The registry's helpers
// (binaryEval, unaryEval, registerReduceOp) accept only destination-passing
// kernels, so the compiler checks those.
func checkEvalOut(pf *pkgFile) []Finding {
	var out []Finding
	ast.Inspect(pf.file, func(n ast.Node) bool {
		kv, ok := n.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Eval" {
			return true
		}
		lit, ok := kv.Value.(*ast.FuncLit)
		if !ok || !namesDestination(lit.Type) {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := fun.X.(*ast.Ident); ok && x.Name == "kernels" && !strings.Contains(fun.Sel.Name, "Into") {
				out = append(out, Finding{Pos: pf.fset.Position(call.Pos()), Check: "evalout",
					Msg: fmt.Sprintf("Eval names its destination but calls allocating kernel kernels.%s; use the *Into variant so the planned buffer is written", fun.Sel.Name)})
			}
			return true
		})
		return true
	})
	return out
}

// namesDestination reports whether a function type's last parameter — an
// Eval's destination — carries a name other than _.
func namesDestination(ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	names := ft.Params.List[len(ft.Params.List)-1].Names
	return len(names) > 0 && names[len(names)-1].Name != "_"
}
