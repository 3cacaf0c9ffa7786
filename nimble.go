// Package nimble is the public front door to the Nimble compiler and VM —
// a Go reproduction of "Nimble: Efficiently Compiling Dynamic Neural
// Networks for Model Inference" (MLSys '21). It unifies the three ways the
// system is consumed behind one small, context-aware API:
//
//	Compile  — lower an IR module (built with nimble/ir) to a frozen Program
//	Session  — single-goroutine execution: Program.NewSession
//	Service  — concurrent serving (one run queue over N VM sessions):
//	           Program.Serve
//
// and one invocation verb everywhere:
//
//	Invoke(ctx context.Context, entry string, args ...Value) (Value, error)
//
// Arguments and results travel as Values (tensors, ADTs, tuples). Every
// blocking path honors the context: queue waits are abandoned, requests
// are withdrawn from pending micro-batches, and long dynamic executions
// (an LSTM stepping a sequence, a Tree-LSTM recursing) notice
// cancellation at call boundaries. Failures come back as typed errors —
// ErrUnknownEntry, ErrBadArity, ErrCanceled, ErrClosed — matched with
// errors.Is.
//
// Programs are introspectable: Program.Entrypoints reports each entry
// function's name, parameter and result types (including dynamic Any
// dimensions and ADT constructors), and whether the compiler proved it
// row-separable (safe to micro-batch). Generic callers — the HTTP server
// in cmd/nimble-serve, load generators — are built entirely on this
// introspection, with no per-model adapters.
//
// # API stability
//
// This package, nimble/ir, nimble/tensor, and nimble/models are the
// supported surface; everything under internal/ may change at any time.
// The exported surface is pinned by an API-lock test (api_lock_test.go):
// additions are allowed, but changing or removing an existing export
// requires a deliberate golden-file update.
package nimble

import (
	"nimble/internal/compiler"
	"nimble/internal/ir"
	"nimble/internal/passes"
	"nimble/internal/typeinfer"
)

// Option customizes compilation. The zero configuration is the full
// pipeline of the paper: fusion, memory planning, storage coalescing,
// symbolic codegen, targeting cpu(0).
type Option func(*compileOptions)

type compileOptions struct {
	c compiler.Options
}

// WithTarget places kernels on the given device (see nimble/ir: CPU, GPU).
func WithTarget(d ir.Device) Option {
	return func(o *compileOptions) { o.c.Target = d }
}

// WithDispatchWidth sets the symbolic dense-dispatch width (1, 2, 4, or 8)
// used by residue-dispatched kernels over Any dimensions.
func WithDispatchWidth(n int) Option {
	return func(o *compileOptions) { o.c.Codegen.Dispatch = n }
}

// WithVerify runs the static invariant verifier after every compilation
// pass and over the emitted bytecode (check mode): SSA/ANF well-formedness,
// type consistency against the operator relations, control-flow sanity, and
// memory-manifest safety (kill/coalescing/live-range rules). A violated
// invariant fails Compile with a *VerificationError naming the pass
// boundary, the invariant, and the offending binding or instruction.
// Verification is off by default. See docs/verifier.md for the invariant
// catalog.
func WithVerify() Option {
	return func(o *compileOptions) { o.c.Verify = true }
}

// CompileStats summarizes what the compiler did, for logging and the
// benchmark harness.
type CompileStats struct {
	// Instructions is the executable's total bytecode length.
	Instructions int `json:"instructions"`
	// Kernels is the number of distinct generated kernels.
	Kernels int `json:"kernels"`
	// FusionGroups and FusedOps summarize operator fusion.
	FusionGroups int `json:"fusion_groups"`
	FusedOps     int `json:"fused_ops"`
	// StaticAllocs/DynamicAllocs split memory planning between
	// compile-time-sized and shape-function-driven allocations.
	StaticAllocs  int `json:"static_allocs"`
	DynamicAllocs int `json:"dynamic_allocs"`
	// StoragesBefore/After report static storage coalescing.
	StoragesBefore int `json:"storages_before"`
	StoragesAfter  int `json:"storages_after"`
}

// Compile lowers an IR module through the full Nimble pipeline — type
// inference with Any dimensions, fusion, memory planning, storage
// coalescing, device placement, symbolic codegen — into a frozen Program.
// The module stays as it was, so it may be compiled again, but not from two
// goroutines at once: type inference records checked types on its nodes.
// Entry signatures (Program.Entrypoints) are captured from the module's
// compile-time types before lowering.
func Compile(mod *ir.Module, opts ...Option) (*Program, error) {
	var o compileOptions
	for _, opt := range opts {
		opt(&o)
	}

	// Infer types up front so signatures are available even for functions
	// without a declared return annotation. (The pass manager re-runs
	// inference as part of the pipeline; inference is idempotent.)
	if err := typeinfer.InferModule(mod); err != nil {
		return nil, err
	}
	entries := map[string]*EntrySignature{}
	var names []string
	for _, name := range mod.FuncNames() {
		fn := mod.Funcs[name]
		sig := &EntrySignature{Name: name}
		seen := map[*ir.TypeDef]bool{}
		for _, p := range fn.Params {
			pt := p.TypeAnn
			if pt == nil {
				pt = p.CheckedType()
			}
			sig.Params = append(sig.Params, infoOrUnknown(pt, seen))
		}
		rt := fn.RetAnn
		if rt == nil {
			rt = fn.Body.CheckedType()
		}
		sig.Result = infoOrUnknown(rt, seen)
		sig.RowSeparable = passes.RowSeparable(fn)
		entries[name] = sig
		names = append(names, name)
	}

	// The executable is NOT frozen here but at first adoption (NewSession,
	// Serve, Save): the window between compile and adoption is where
	// construction-phase decoration — fault-injection wrappers
	// (internal/faults), instrumentation — may rewrap the kernel table.
	// Once any execution context exists the artifact is sealed for good.
	res, err := compiler.Compile(mod, o.c)
	if err != nil {
		return nil, wrapVerify(err)
	}
	return &Program{
		exe:      res.Exe,
		registry: res.Registry,
		entries:  entries,
		names:    names,
		stats: CompileStats{
			Instructions:   res.Stats.Instructions,
			Kernels:        res.Stats.Kernels,
			FusionGroups:   res.Stats.Fusion.Groups,
			FusedOps:       res.Stats.Fusion.OpsFused,
			StaticAllocs:   res.Stats.Alloc.StaticAllocs,
			DynamicAllocs:  res.Stats.Alloc.DynamicAllocs,
			StoragesBefore: res.Stats.Coalesce.Before,
			StoragesAfter:  res.Stats.Coalesce.After,
		},
	}, nil
}

func infoOrUnknown(t ir.Type, seen map[*ir.TypeDef]bool) TypeInfo {
	if t == nil {
		return TypeInfo{Kind: KindUnknownType}
	}
	return typeInfoOf(t, seen)
}
