package vm

import (
	"fmt"

	"nimble/internal/tensor"
)

// PackedFunc is an ahead-of-time compiled kernel: inputs arrive as tensors,
// and when the caller passes a destination buffer (out != nil) the kernel
// must place its result there, returning the tensor to store in the
// destination register (usually out itself, or a view of it for upper-bound
// operators that produce fewer elements than allocated). When out is nil the
// kernel allocates its own result — the convention shape functions use.
type PackedFunc func(args []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error)

// VMFunc is the bytecode-level descriptor of one compiled function.
type VMFunc struct {
	Name string
	// NumParams is the number of arguments; parameters arrive in registers
	// 0..NumParams-1.
	NumParams int
	// RegCount is the size of the register file for an activation frame.
	RegCount int
	// Start is the function's entry offset in Executable.Code.
	Start int
	// Len is the number of instructions belonging to the function.
	Len int
}

// Executable is the unit Nimble's compiler produces (§3): a
// platform-independent bytecode segment (Code, Funcs, Consts) plus the
// platform-dependent kernel table. Kernels are referenced by index from
// InvokePacked; their implementations (Go closures over the kernel library)
// are bound either at compile time or, after deserialization, by LinkKernels
// using the kernel names.
//
// An executable has two phases. During construction (compile or
// deserialize+link) it is mutated by Add*/LinkKernels on one goroutine.
// Once Freeze is called it becomes an immutable shared artifact: every
// field is read-only, so any number of VMs — one per serving session — can
// execute it concurrently without synchronization. The VM never writes
// through the executable: constants are shared by reference under the §5.2
// copy-on-write discipline, and per-run caches (resolved kernel table,
// profiler, storage pool, frames) live in the VM session.
type Executable struct {
	// Funcs lists compiled functions; FuncIndex maps names to indices.
	Funcs     []VMFunc
	FuncIndex map[string]int
	// Code is the flat instruction stream of all functions.
	Code []Instruction
	// Consts is the constant pool; weights live here and "can remain
	// in-memory with no specialized support" (§5.2).
	Consts []*tensor.Tensor
	// KernelNames names each kernel slot for serialization and profiling.
	KernelNames []string

	kernels []PackedFunc
	// frozen marks the executable immutable; set by Freeze when the first
	// serving pool adopts it. Construction-phase mutators panic afterwards.
	frozen bool
	// constObjs holds one register object per Consts entry, made by
	// AddConst, so LoadConst copies a pointer instead of allocating. The
	// objects are shared read-only by every VM, like the tensors they wrap.
	constObjs []*TensorObj
}

// NewExecutable creates an empty executable.
func NewExecutable() *Executable {
	return &Executable{FuncIndex: map[string]int{}}
}

// Freeze seals the executable: construction-phase mutators (AddFunc,
// AddConst, AddKernel, LinkKernels) panic or error from now on. Freezing is
// idempotent and is how a serving pool asserts the artifact it shares
// across sessions cannot change underneath them.
func (e *Executable) Freeze() { e.frozen = true }

// Frozen reports whether Freeze has been called.
func (e *Executable) Frozen() bool { return e.frozen }

// mutCheck guards the construction-phase-only mutators: once an executable
// is frozen (adopted by a pool or serialized) any mutation is a programming
// error, caught before it can corrupt a shared artifact
// (vet:panic-ok — construction-phase misuse guard, never on a request path).
func (e *Executable) mutCheck(op string) {
	if e.frozen {
		panic(fmt.Sprintf("vm: %s on frozen executable (it is shared by serving sessions)", op))
	}
}

// AddFunc appends a function descriptor and returns its index.
func (e *Executable) AddFunc(f VMFunc) int {
	e.mutCheck("AddFunc")
	idx := len(e.Funcs)
	e.Funcs = append(e.Funcs, f)
	e.FuncIndex[f.Name] = idx
	return idx
}

// AddConst appends a tensor to the constant pool and returns its index.
func (e *Executable) AddConst(t *tensor.Tensor) int {
	e.mutCheck("AddConst")
	e.Consts = append(e.Consts, t)
	e.constObjs = append(e.constObjs, NewTensorObj(t))
	return len(e.Consts) - 1
}

// AddKernel appends a named kernel and returns its index.
func (e *Executable) AddKernel(name string, fn PackedFunc) int {
	e.mutCheck("AddKernel")
	e.KernelNames = append(e.KernelNames, name)
	e.kernels = append(e.kernels, fn)
	return len(e.kernels) - 1
}

// WrapKernels replaces every bound kernel with wrap(name, kernel) — the
// hook fault injection (internal/faults) and instrumentation use to
// decorate the kernel table. Like the other construction-phase mutators it
// must run before the executable is frozen; unlinked slots are left alone.
func (e *Executable) WrapKernels(wrap func(name string, fn PackedFunc) PackedFunc) error {
	if e.frozen {
		return fmt.Errorf("vm: WrapKernels on frozen executable (wrap before pooling)")
	}
	for i, fn := range e.kernels {
		if fn != nil {
			e.kernels[i] = wrap(e.KernelNames[i], fn)
		}
	}
	return nil
}

// Kernel returns the bound kernel at idx.
func (e *Executable) Kernel(idx int) (PackedFunc, error) {
	if idx < 0 || idx >= len(e.kernels) {
		return nil, fmt.Errorf("vm: kernel index %d out of range", idx)
	}
	k := e.kernels[idx]
	if k == nil {
		return nil, fmt.Errorf("vm: kernel %q is unlinked; call LinkKernels after deserialization", e.KernelNames[idx])
	}
	return k, nil
}

// LinkKernels binds deserialized kernel names to implementations. Every
// named kernel must resolve; a missing kernel is a deployment error surfaced
// immediately rather than at first dispatch.
func (e *Executable) LinkKernels(registry map[string]PackedFunc) error {
	if e.frozen {
		return fmt.Errorf("vm: LinkKernels on frozen executable (link before pooling)")
	}
	e.kernels = make([]PackedFunc, len(e.KernelNames))
	for i, name := range e.KernelNames {
		fn, ok := registry[name]
		if !ok {
			return fmt.Errorf("vm: no kernel registered for %q", name)
		}
		e.kernels[i] = fn
	}
	return nil
}

// EntryFunc resolves a function by name.
func (e *Executable) EntryFunc(name string) (int, error) {
	idx, ok := e.FuncIndex[name]
	if !ok {
		return 0, fmt.Errorf("vm: executable has no function %q", name)
	}
	return idx, nil
}

// Disassemble renders the bytecode of all functions.
func (e *Executable) Disassemble() string {
	out := ""
	for _, f := range e.Funcs {
		out += fmt.Sprintf("func %s(params=%d, regs=%d):\n", f.Name, f.NumParams, f.RegCount)
		for i := f.Start; i < f.Start+f.Len; i++ {
			out += fmt.Sprintf("  %4d: %s\n", i-f.Start, e.Code[i])
		}
	}
	return out
}
