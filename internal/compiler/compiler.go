// Package compiler drives Nimble's end-to-end compilation (§3): it runs the
// pass pipeline over an IR module (type inference with Any, fusion, memory
// planning, storage coalescing, device placement) and lowers the result to a
// vm.Executable containing platform-independent bytecode plus the kernel
// table generated by internal/codegen.
package compiler

import (
	"fmt"

	"nimble/internal/codegen"
	"nimble/internal/ir"
	"nimble/internal/passes"
	"nimble/internal/tensor"
	"nimble/internal/verify"
	"nimble/internal/vm"
)

// Options selects compilation behavior; the zero value is the full Nimble
// pipeline targeting cpu(0).
type Options struct {
	// Target is the device kernels are placed on (default cpu(0)).
	Target ir.Device
	// DisableFusion drops operator fusion from the pipeline (ablation).
	DisableFusion bool
	// DisableCoalescing drops static storage coalescing (ablation).
	DisableCoalescing bool
	// DisableMemoryPlanning drops the explicit-allocation transform and
	// coalescing; kernels then allocate their own outputs (ablation).
	DisableMemoryPlanning bool
	// Verify runs the static invariant verifier (internal/verify) after
	// every pass and over the emitted executable, failing compilation with a
	// *verify.Error at the first boundary whose invariants do not hold. Off
	// by default: it exists for debugging passes, the conformance fuzzer,
	// and CI — not the serving hot path.
	Verify bool
}

// Stats aggregates pass statistics for the evaluation harness.
type Stats struct {
	passes.Stats
	// Kernels is the number of distinct kernels in the executable.
	Kernels int
	// Instructions is the total bytecode length.
	Instructions int
}

// Result carries the executable and the kernel registry needed to relink a
// deserialized copy of it ("platform-dependent kernel code").
type Result struct {
	Exe      *vm.Executable
	Registry map[string]vm.PackedFunc
	Stats    Stats
}

// Compile lowers a module to an executable through passes.DefaultPipeline.
// The caller's module keeps its function bodies, so it may be compiled
// again; type inference still records checked types on its nodes, so two
// compiles of one module must not run at once.
func Compile(mod *ir.Module, opts Options) (*Result, error) {
	if opts.Target.IsUnknown() {
		opts.Target = ir.CPU(0)
	}

	// The passes replace function bodies: lower a copy of the function table.
	work := &ir.Module{Funcs: make(map[string]*ir.Function, len(mod.Funcs)), TypeDefs: mod.TypeDefs}
	for name, fn := range mod.Funcs {
		cp := *fn
		work.Funcs[name] = &cp
	}
	mgr := passes.DefaultPipeline(opts.Target)
	if opts.DisableFusion {
		mgr.Drop("fuse-ops")
	}
	if opts.DisableMemoryPlanning {
		mgr.Drop("manifest-alloc", "coalesce-storage")
	}
	if opts.DisableCoalescing {
		mgr.Drop("coalesce-storage")
	}
	if opts.Verify {
		checks := verify.ModuleChecks{}
		mgr.AfterPass = func(name string, m *ir.Module) error {
			checks = checks.AfterPass(name)
			return verify.Module(m, "after "+name, checks)
		}
	}
	if err := mgr.Run(work); err != nil {
		return nil, err
	}

	c := &compiler{
		opts:     opts,
		exe:      vm.NewExecutable(),
		fnIndex:  map[string]int{},
		kernels:  map[string]int{},
		registry: map[string]vm.PackedFunc{},
		consts:   map[*tensor.Tensor]int{},
	}
	// Pre-assign indices so mutually recursive Invokes resolve.
	for _, name := range work.FuncNames() {
		c.fnIndex[name] = len(c.fns)
		c.fns = append(c.fns, &compiledFunc{name: name})
	}
	for _, name := range work.FuncNames() {
		idx := c.fnIndex[name]
		if err := c.compileFunc(idx, idx, nil, work.Funcs[name]); err != nil {
			return nil, fmt.Errorf("compiler: %s: %w", name, err)
		}
	}
	c.assemble()
	if opts.Verify {
		if err := verify.Executable(c.exe, "executable"); err != nil {
			return nil, err
		}
	}
	st := Stats{Stats: mgr.Stats, Kernels: len(c.exe.KernelNames), Instructions: len(c.exe.Code)}
	return &Result{Exe: c.exe, Registry: c.registry, Stats: st}, nil
}

// CompileToVM is a convenience wrapper returning a ready VM.
func CompileToVM(mod *ir.Module, opts Options) (*vm.VM, *Result, error) {
	res, err := Compile(mod, opts)
	if err != nil {
		return nil, nil, err
	}
	return vm.New(res.Exe), res, nil
}

type compiledFunc struct {
	name      string
	numParams int
	regCount  int
	code      []vm.Instruction
}

type compiler struct {
	opts     Options
	exe      *vm.Executable
	fns      []*compiledFunc
	fnIndex  map[string]int
	kernels  map[string]int
	registry map[string]vm.PackedFunc
	consts   map[*tensor.Tensor]int
	lifted   int
}

func (c *compiler) assemble() {
	for _, f := range c.fns {
		start := len(c.exe.Code)
		c.exe.Code = append(c.exe.Code, f.code...)
		c.exe.AddFunc(vm.VMFunc{
			Name: f.name, NumParams: f.numParams,
			RegCount: f.regCount, Start: start, Len: len(f.code),
		})
	}
}

// internKernel deduplicates kernels by name.
func (c *compiler) internKernel(k codegen.Kernel) int {
	if idx, ok := c.kernels[k.Name]; ok {
		return idx
	}
	idx := c.exe.AddKernel(k.Name, k.Fn)
	c.kernels[k.Name] = idx
	c.registry[k.Name] = k.Fn
	return idx
}

func (c *compiler) internConst(k *ir.Constant) int {
	t := k.Value
	if idx, ok := c.consts[t]; ok {
		return idx
	}
	idx := c.exe.AddPackedConst(t, k.Units)
	c.consts[t] = idx
	return idx
}

// liftFunction compiles a function literal into a fresh VM function whose
// parameters are the captured free variables followed by the declared
// parameters (closure conversion).
func (c *compiler) liftFunction(fn *ir.Function, free []*ir.Var) (int, error) {
	c.lifted++
	name := fmt.Sprintf("lambda%d", c.lifted)
	idx := len(c.fns)
	c.fnIndex[name] = idx
	c.fns = append(c.fns, &compiledFunc{name: name})
	return idx, c.compileFunc(idx, -1, free, fn)
}

// compileFunc lowers fn's body, in tail position, into function idx, whose
// parameter registers hold free followed by fn's parameters. selfIdx is the
// index a self tail call names; -1, for a lifted lambda, recognizes none.
func (c *compiler) compileFunc(idx, selfIdx int, free []*ir.Var, fn *ir.Function) error {
	fc := &funcCompiler{c: c, out: c.fns[idx], regs: map[*ir.Var]vm.Reg{}, selfIdx: selfIdx}
	for i, v := range free {
		fc.regs[v] = i
	}
	for i, p := range fn.Params {
		fc.regs[p] = len(free) + i
	}
	fc.out.numParams = len(free) + len(fn.Params)
	fc.next = fc.out.numParams
	r, done, err := fc.lower(fn.Body, true)
	if err != nil {
		return err
	}
	if !done {
		fc.emit(vm.Instruction{Op: vm.OpRet, A: r})
	}
	fc.out.regCount = fc.next
	return nil
}
