// Package passes implements Nimble's compilation passes over the IR: A-normal
// form conversion, constant folding, dead-code elimination, the §4.2
// fusion policy, the §4.3 explicit-allocation (memory planning) transform
// with storage coalescing, and the §4.4 union-find device placement.
//
// Passes operate on whole modules. DefaultPipeline is the one pipeline:
//
//	ANF -> ConstantFold -> DCE -> PackDenseWeights -> FuseOps ->
//	ManifestAlloc -> CoalesceStorage -> PlaceDevices
//
// internal/compiler runs it, dropping passes by name for its ablations.
// Fusion, memory planning, coalescing and placement each rewrite one
// let-chain at a time and reach the chains nested in If branches, Match
// clauses and function literals through rewriteChains.
package passes

import (
	"fmt"
	"slices"

	"nimble/internal/ir"
	"nimble/internal/typeinfer"
)

// Pass is a named module transformation. Run replaces the bodies of the
// module's functions and adds what it did to st.
type Pass struct {
	Name string
	Run  func(mod *ir.Module, st *Stats) error
	// NeedsTypes marks passes that consult checked types; the manager
	// re-runs inference before them when a prior pass invalidated types.
	NeedsTypes bool
}

// Stats is what the pipeline's passes report, for the §6 studies.
type Stats struct {
	Fusion    FusionStats
	Alloc     AllocStats
	Coalesce  CoalesceStats
	Placement PlacementStats
}

// Manager sequences passes with type-inference maintenance.
type Manager struct {
	passes []Pass
	// Stats accumulates what the passes of every Run report.
	Stats Stats
	// AfterPass, when non-nil, runs after every pass with the pass name and
	// the transformed module; a non-nil error aborts the pipeline. The
	// compiler's check mode hangs the static verifier here so a bad pass is
	// reported at its own boundary.
	AfterPass func(name string, mod *ir.Module) error
}

// NewManager builds a manager over the given passes.
func NewManager(passes ...Pass) *Manager { return &Manager{passes: passes} }

// DefaultPipeline returns the full Nimble lowering pipeline for the given
// target device.
func DefaultPipeline(target ir.Device) *Manager {
	return NewManager(
		ANF(),
		ConstantFold(),
		DCE(),
		PackDenseWeights(),
		FuseOps(),
		ManifestAlloc(target),
		CoalesceStorage(),
		PlaceDevices(target),
	)
}

// Drop removes the named passes from the pipeline; names it does not run
// are ignored.
func (m *Manager) Drop(names ...string) {
	m.passes = slices.DeleteFunc(m.passes, func(p Pass) bool { return slices.Contains(names, p.Name) })
}

// Run applies the pipeline to the module, running type inference up front
// and again before every pass that needs types. The passes rewrite the
// module's functions in place.
func (m *Manager) Run(mod *ir.Module) error {
	if err := typeinfer.InferModule(mod); err != nil {
		return fmt.Errorf("passes: initial type inference: %w", err)
	}
	for _, p := range m.passes {
		if p.NeedsTypes {
			if err := typeinfer.InferModule(mod); err != nil {
				return fmt.Errorf("passes: re-inference before %s: %w", p.Name, err)
			}
		}
		if err := p.Run(mod, &m.Stats); err != nil {
			return fmt.Errorf("passes: %s: %w", p.Name, err)
		}
		if m.AfterPass != nil {
			if err := m.AfterPass(p.Name, mod); err != nil {
				return err
			}
		}
	}
	return nil
}

// mapFuncs applies f to every function body in the module.
func mapFuncs(mod *ir.Module, f func(name string, fn *ir.Function) (ir.Expr, error)) error {
	for _, name := range mod.FuncNames() {
		fn := mod.Funcs[name]
		body, err := f(name, fn)
		if err != nil {
			return err
		}
		fn.Body = body
	}
	return nil
}

// rewriteChains applies f to every let-chain of e: each If branch, Match
// clause and nested Function body in ir.Rewrite's post-order, then e's own
// chain. Rebuilt nodes keep their checked types, and the first error f
// returns stops the walk.
func rewriteChains(e ir.Expr, f func(ir.Expr) (ir.Expr, error)) (ir.Expr, error) {
	var err error
	chain := func(c ir.Expr) ir.Expr {
		if err != nil {
			return c
		}
		out, ferr := f(c)
		if ferr != nil {
			err = ferr
			return c
		}
		return out
	}
	e = ir.Rewrite(e, func(x ir.Expr) ir.Expr {
		var out ir.Expr
		switch n := x.(type) {
		case *ir.If:
			out = &ir.If{Cond: n.Cond, Then: chain(n.Then), Else: chain(n.Else)}
		case *ir.Match:
			clauses := make([]*ir.Clause, len(n.Clauses))
			for i, c := range n.Clauses {
				clauses[i] = &ir.Clause{Pattern: c.Pattern, Body: chain(c.Body)}
			}
			out = &ir.Match{Data: n.Data, Clauses: clauses}
		case *ir.Function:
			out = ir.NewFunc(n.Params, chain(n.Body), n.RetAnn)
		default:
			return x
		}
		return keepType(out, x)
	})
	e = chain(e)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// keepType gives out, a rebuilt copy of from, from's checked type.
func keepType(out, from ir.Expr) ir.Expr {
	out.SetCheckedType(from.CheckedType())
	return out
}
