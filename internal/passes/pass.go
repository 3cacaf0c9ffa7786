// Package passes implements Nimble's compilation passes over the IR: A-normal
// form conversion, constant folding, dead-code elimination, the §4.2
// fusion policy, the §4.3 explicit-allocation (memory planning) transform
// with storage coalescing, and the §4.4 union-find device placement.
//
// Passes operate on whole modules. The canonical pipeline, applied by
// internal/compiler, is:
//
//	ANF -> ConstantFold -> DCE -> PackDenseWeights -> FuseOps ->
//	ManifestAlloc -> CoalesceStorage -> PlaceDevices
package passes

import (
	"fmt"

	"nimble/internal/ir"
	"nimble/internal/typeinfer"
)

// Pass is a named module transformation.
type Pass struct {
	Name string
	Run  func(*ir.Module) error
	// NeedsTypes marks passes that consult checked types; the manager
	// re-runs inference before them when a prior pass invalidated types.
	NeedsTypes bool
}

// Manager sequences passes with type-inference maintenance.
type Manager struct {
	passes []Pass
	// Trace receives one line per executed pass when non-nil.
	Trace func(string)
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

// Run applies the pipeline to the module, running type inference up front
// and again before every pass that needs types.
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
		if err := p.Run(mod); err != nil {
			return fmt.Errorf("passes: %s: %w", p.Name, err)
		}
		if m.Trace != nil {
			m.Trace(p.Name)
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

// binding is one link of a let-chain.
type binding struct {
	v     *ir.Var
	value ir.Expr
}

// splitChain decomposes a let-chain into its bindings and final result.
func splitChain(e ir.Expr) ([]binding, ir.Expr) {
	var out []binding
	for {
		l, ok := e.(*ir.Let)
		if !ok {
			return out, e
		}
		out = append(out, binding{v: l.Bound, value: l.Value})
		e = l.Body
	}
}

// buildChain reassembles a let-chain.
func buildChain(bs []binding, result ir.Expr) ir.Expr {
	out := result
	for i := len(bs) - 1; i >= 0; i-- {
		out = ir.NewLet(bs[i].v, bs[i].value, out)
	}
	return out
}

// isAtomic reports whether an expression may appear as an operand in
// A-normal form.
func isAtomic(e ir.Expr) bool {
	switch e.(type) {
	case *ir.Var, *ir.GlobalVar, *ir.Constant, *ir.OpRef, *ir.CtorRef:
		return true
	}
	return false
}

// opCall returns the operator of a call whose callee is an OpRef, or nil.
func opCall(e ir.Expr) (*ir.Call, *ir.Op) {
	c, ok := e.(*ir.Call)
	if !ok {
		return nil, nil
	}
	ref, ok := c.Callee.(*ir.OpRef)
	if !ok {
		return c, nil
	}
	return c, ref.Op
}
