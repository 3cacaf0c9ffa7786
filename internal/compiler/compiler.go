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
	// Codegen configures kernel generation (dispatch width, library use).
	Codegen codegen.Options
	// DisableFusion turns off operator fusion (ablation).
	DisableFusion bool
	// DisableCoalescing turns off static storage coalescing (ablation).
	DisableCoalescing bool
	// DisableMemoryPlanning skips the explicit-allocation transform
	// entirely; kernels then allocate their own outputs (ablation).
	DisableMemoryPlanning bool
	// Verify runs the static invariant verifier (internal/verify) after
	// every pass and over the emitted executable, failing compilation with a
	// *verify.Error at the first boundary whose invariants do not hold. Off
	// by default: it exists for debugging passes, the conformance fuzzer,
	// and CI — not the serving hot path.
	Verify bool
	// Stats receives pass statistics when non-nil.
	Stats *Stats
}

// Stats aggregates pass statistics for the evaluation harness.
type Stats struct {
	Fusion    passes.FusionStats
	Alloc     passes.AllocStats
	Coalesce  passes.CoalesceStats
	Placement passes.PlacementStats
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

// Compile lowers a module to an executable.
func Compile(mod *ir.Module, opts Options) (*Result, error) {
	if opts.Target.IsUnknown() {
		opts.Target = ir.CPU(0)
	}
	st := opts.Stats
	if st == nil {
		st = &Stats{}
	}

	var pipeline []passes.Pass
	pipeline = append(pipeline, passes.ANF(), passes.ConstantFold(), passes.DCE(), passes.PackDenseWeights())
	if !opts.DisableFusion {
		pipeline = append(pipeline, passes.FuseOpsWithStats(&st.Fusion))
	}
	if !opts.DisableMemoryPlanning {
		pipeline = append(pipeline, passes.ManifestAllocWithStats(opts.Target, &st.Alloc))
		if !opts.DisableCoalescing {
			pipeline = append(pipeline, passes.CoalesceStorageWithStats(&st.Coalesce))
		}
	}
	pipeline = append(pipeline, passes.PlaceDevicesWithStats(opts.Target, &st.Placement))
	mgr := passes.NewManager(pipeline...)
	if opts.Verify {
		checks := verify.ModuleChecks{}
		mgr.AfterPass = func(name string, m *ir.Module) error {
			checks = checks.AfterPass(name)
			return verify.Module(m, "after "+name, checks)
		}
	}
	if err := mgr.Run(mod); err != nil {
		return nil, err
	}

	c := &compiler{
		mod:      mod,
		opts:     opts,
		exe:      vm.NewExecutable(),
		fnIndex:  map[string]int{},
		kernels:  map[string]int{},
		registry: map[string]vm.PackedFunc{},
		consts:   map[*tensor.Tensor]int{},
	}
	// Pre-assign indices so mutually recursive Invokes resolve.
	for _, name := range mod.FuncNames() {
		c.fnIndex[name] = len(c.fns)
		c.fns = append(c.fns, &compiledFunc{name: name})
	}
	for _, name := range mod.FuncNames() {
		if err := c.compileFunc(c.fnIndex[name], mod.Funcs[name]); err != nil {
			return nil, fmt.Errorf("compiler: %s: %w", name, err)
		}
	}
	c.assemble()
	if opts.Verify {
		if err := verify.Executable(c.exe, "executable"); err != nil {
			return nil, err
		}
	}
	st.Kernels = len(c.exe.KernelNames)
	st.Instructions = len(c.exe.Code)
	return &Result{Exe: c.exe, Registry: c.registry, Stats: *st}, nil
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
	mod      *ir.Module
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

func (c *compiler) compileFunc(idx int, fn *ir.Function) error {
	fc := &funcCompiler{c: c, out: c.fns[idx], regs: map[*ir.Var]vm.Reg{}, selfIdx: idx}
	fc.out.numParams = len(fn.Params)
	for i, p := range fn.Params {
		fc.regs[p] = i
	}
	fc.next = len(fn.Params)
	r, done, err := fc.compileTail(fn.Body)
	if err != nil {
		return err
	}
	if !done {
		fc.emit(vm.Instruction{Op: vm.OpRet, A: r})
	}
	fc.out.regCount = fc.next
	return nil
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

	fc := &funcCompiler{c: c, out: c.fns[idx], regs: map[*ir.Var]vm.Reg{}, selfIdx: -1}
	fc.out.numParams = len(free) + len(fn.Params)
	for i, v := range free {
		fc.regs[v] = i
	}
	for i, p := range fn.Params {
		fc.regs[p] = len(free) + i
	}
	fc.next = fc.out.numParams
	r, err := fc.compile(fn.Body)
	if err != nil {
		return 0, err
	}
	fc.emit(vm.Instruction{Op: vm.OpRet, A: r})
	fc.out.regCount = fc.next
	return idx, nil
}
