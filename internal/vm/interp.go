package vm

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"nimble/internal/ir"
	"nimble/internal/tensor"
)

// VM is an interpreter instance over a loaded executable. "When execution
// begins, the interpreter runs a dispatch loop which checks the op-code and
// executes the appropriate logic, then repeats" (§5.2).
//
// # Session model
//
// A VM is a session: it owns mutable per-execution state — the runtime
// storage pool, recycled frames and scratch slices, the resolved kernel
// table, and the optional profiler — and is therefore NOT safe for
// concurrent use. The Executable underneath it is the opposite: once
// frozen it is immutable, so any number of VMs may share one executable
// and run in parallel, one VM per goroutine. internal/serve's Scheduler
// serves this way: it builds one VM per session over a shared executable
// and marks each pooled, after which the VM rejects configuration mutators
// (SetProfiler, DisablePool, AttachSharedPool).
type VM struct {
	exe  *Executable
	prof *Profiler
	pool *storagePool
	// maxDepth bounds recursion to catch runaway programs.
	maxDepth int

	// kernels is the executable's kernel table, cached at Invoke so
	// execPacked dispatches by direct index instead of the bounds-and-nil
	// checked exe.Kernel call.
	kernels []PackedFunc
	// freeFrames recycles activation frames (and their register files)
	// across calls; the dynamic models re-enter `loop` once per timestep, so
	// frame churn is hot-path work.
	freeFrames []*frame
	// objScratch stages call arguments for Invoke/InvokeClosure; newFrame
	// copies them into the callee's registers immediately, so one scratch
	// slice serves every call site.
	objScratch []Object
	// tensorScratch stages kernel arguments for execPacked; kernels read
	// their argument slice synchronously and never retain it.
	tensorScratch []*tensor.Tensor
	// stack is the frame stack InvokeContext runs on, kept between calls.
	stack []*frame
	// keepScratch is releaseFrame's reusable escape set.
	keepScratch map[*Storage]bool
	// pooled marks the VM as a serving session; configuration mutators
	// panic afterwards because another goroutine may hold the session
	// between the caller's observations.
	pooled bool

	// sink, when non-nil, receives a deep copy of every tensor flowing
	// through a stream.emit kernel during the current invocation — the
	// token-by-token delivery path of streaming decode. sinkKernel is the
	// executable's stream.emit kernel index (-1 when absent), resolved once
	// in New, so execPacked pays one integer compare per packed call.
	sink       func(*tensor.Tensor) error
	sinkKernel int
}

// New creates a VM over exe with the runtime storage pool enabled.
func New(exe *Executable) *VM {
	return &VM{exe: exe, pool: newStoragePool(), maxDepth: 1 << 20, keepScratch: map[*Storage]bool{},
		sinkKernel: slices.Index(exe.KernelNames, ir.OpStreamEmit)}
}

// SetProfiler attaches (or detaches, with nil) a profiler. It must be
// called before the VM becomes a serving session: afterwards the session
// may be executing on another goroutine, so the mutation panics
// (vet:panic-ok — construction-phase misuse guard, never on a request path).
func (vm *VM) SetProfiler(p *Profiler) {
	if vm.pooled {
		panic("vm: SetProfiler on a pooled VM; attach the profiler before the serving scheduler adopts the session")
	}
	vm.prof = p
}

// DisablePool turns off runtime storage reuse (for the memory-planning
// ablation: every AllocStorage then hits the Go allocator). Like
// SetProfiler it panics once the VM is a serving session
// (vet:panic-ok — construction-phase misuse guard, never on a request path).
func (vm *VM) DisablePool() {
	if vm.pooled {
		panic("vm: DisablePool on a pooled VM; configure the session before the serving scheduler adopts it")
	}
	vm.pool = nil
}

// MarkPooled transitions the VM into the pooled phase: configuration
// mutators panic from now on. Called by internal/serve's Scheduler when it
// builds a session; the transition is one-way.
func (vm *VM) MarkPooled() { vm.pooled = true }

// InvokeContext runs the named function on args, checking ctx at call
// boundaries: entry, every function call (OpInvoke/OpInvokeClosure — the
// IR's loop construct is recursion, so long-running dynamic models cross
// one per timestep/tree node), and backward jumps. A background context
// adds no per-instruction work: the done channel is captured once and a
// nil channel skips every check.
func (vm *VM) InvokeContext(ctx context.Context, name string, args ...Object) (Object, error) {
	return vm.InvokeStreamContext(ctx, nil, name, args...)
}

// InvokeStreamContext runs the named function like InvokeContext, but
// additionally delivers a deep copy of every value flowing through a
// stream.emit operator to sink, in program order, before execution proceeds.
// A sink error aborts the invocation and is returned (wrapped) to the
// caller, so a consumer that goes away cancels the producing loop. The final
// return value is the same Object InvokeContext would produce: streaming
// and non-streaming runs of a deterministic program yield identical
// results.
//
// The call is a StreamRun that lives on the Go stack and steps to its end
// on the VM's own frame stack, whose backing array is kept for the next
// call: a call adds no allocation of its own.
func (vm *VM) InvokeStreamContext(ctx context.Context, sink func(*tensor.Tensor) error, name string, args ...Object) (Object, error) {
	idx, err := vm.exe.EntryFunc(name)
	if err != nil {
		return nil, err
	}
	f, err := vm.newFrame(idx, args)
	if err != nil {
		return nil, err
	}
	r := StreamRun{vm: vm, stack: append(vm.stack, f), sink: sink}
	vm.stack = nil // a call nested in a sink must not share the array
	for done := false; !done; {
		done, _ = r.Step(ctx)
	}
	vm.stack = r.stack[:0]
	return r.Result()
}

// InvokeTensorsContext is a convenience wrapper over InvokeContext:
// tensors in, tensor out.
func (vm *VM) InvokeTensorsContext(ctx context.Context, name string, args ...*tensor.Tensor) (*tensor.Tensor, error) {
	objs := make([]Object, len(args))
	for i, a := range args {
		objs[i] = NewTensorObj(a)
	}
	out, err := vm.InvokeContext(ctx, name, objs...)
	if err != nil {
		return nil, err
	}
	to, err := asTensor(out)
	if err != nil {
		return nil, err
	}
	return to.T, nil
}

type frame struct {
	fn   int
	regs []Object
	pc   int
	// dst is the caller register receiving this frame's return value.
	dst Reg
	// allocs records every storage this frame acquired (when the pool is
	// on). Tail-call loops re-enter the frame via a backward Goto without
	// passing OpRet, so frame-exit release alone would leak one iteration's
	// buffers per token; the loop back edge instead recycles everything not
	// reachable from the next iteration's parameters.
	allocs []*Storage
}

func (vm *VM) newFrame(fnIdx int, args []Object) (*frame, error) {
	fn := vm.exe.Funcs[fnIdx]
	if len(args) != fn.NumParams {
		return nil, fmt.Errorf("vm: %s expects %d args, got %d", fn.Name, fn.NumParams, len(args))
	}
	var f *frame
	if n := len(vm.freeFrames); n > 0 {
		f = vm.freeFrames[n-1]
		vm.freeFrames = vm.freeFrames[:n-1]
	} else {
		f = &frame{}
	}
	if cap(f.regs) >= fn.RegCount {
		// Recycled register files were zeroed by freeFrame, so no stale
		// Object can leak into releaseFrame's storage scan.
		f.regs = f.regs[:fn.RegCount]
	} else {
		f.regs = make([]Object, fn.RegCount)
	}
	copy(f.regs, args)
	f.fn = fnIdx
	f.pc = fn.Start
	f.dst = 0
	return f, nil
}

// freeFrame returns a frame (and its register file) to the recycle list.
const maxFreeFrames = 64

func (vm *VM) freeFrame(f *frame) {
	if len(vm.freeFrames) >= maxFreeFrames {
		return
	}
	// Zero the registers now rather than at reuse: a parked frame must not
	// retain dead tensors across invocations, and releaseFrame's storage
	// scan must never see objects from a previous activation. Registers
	// beyond the current length were zeroed when their frame was freed, so
	// the whole capacity stays nil outside the live window.
	clear(f.regs)
	clear(f.allocs)
	f.allocs = f.allocs[:0]
	vm.freeFrames = append(vm.freeFrames, f)
}

// exec is the dispatch loop over an explicit frame stack. It returns
// parked=true at every compiled-loop back edge — after the edge's recycle
// and pc advance, so the parked stack's parameter registers already hold
// the next iteration's arguments and the loop-carried state (the decode
// KV-cache) sits in planner-owned buffers tracked by the frames' alloc
// lists. Re-entering exec with the returned stack runs exactly one more
// iteration. InvokeContext re-enters until the entry returns; StreamRun
// packages one re-entry per Step, so one session can interleave many runs
// at iteration granularity.
//
// The returned stack is the live remainder: empty after normal completion,
// the parked frames at a back edge, and whatever was active at the fault on
// error (the caller owns releasing it — see StreamRun.Abort).
func (vm *VM) exec(ctx context.Context, stack []*frame) (_ []*frame, parked bool, _ Object, _ error) {
	code := vm.exe.Code
	prof := vm.prof
	// done is nil for context.Background(), making every cancellation check
	// below a single nil comparison on the hot path.
	done := ctx.Done()

	for {
		fr := stack[len(stack)-1]
		if fr.pc < 0 || fr.pc >= len(code) {
			return stack, false, nil, fmt.Errorf("vm: pc %d out of range in %s", fr.pc, vm.exe.Funcs[fr.fn].Name)
		}
		in := code[fr.pc]
		if prof != nil {
			prof.Counts[in.Op]++
		}
		var tStart time.Time
		if prof != nil && prof.Timing && in.Op != OpInvokePacked {
			tStart = time.Now()
		}

		switch in.Op {
		case OpMove:
			fr.regs[in.Dst] = fr.regs[in.A]
			fr.pc++

		case OpRet:
			ret := fr.regs[in.A]
			stack[len(stack)-1] = nil
			stack = stack[:len(stack)-1]
			// "Objects are reference counted ... kill(tensor) frees a tensor
			// before its reference count becomes zero due to exiting the
			// frame" (§4.3, §5.2): at frame exit, every storage that does
			// not back the escaping return value goes back to the pool.
			vm.releaseFrame(fr, ret)
			retDst := fr.dst
			vm.freeFrame(fr)
			if len(stack) == 0 {
				if prof != nil && prof.Timing {
					prof.OtherTime += time.Since(tStart)
				}
				return stack, false, ret, nil
			}
			caller := stack[len(stack)-1]
			caller.regs[retDst] = ret
			// caller.pc already advanced past its Invoke.

		case OpInvoke:
			if len(stack) >= vm.maxDepth {
				return stack, false, nil, fmt.Errorf("vm: call stack overflow (%d frames)", len(stack))
			}
			if done != nil {
				select {
				case <-done:
					return stack, false, nil, ctx.Err()
				default:
				}
			}
			// Stage the arguments in the shared scratch: newFrame copies them
			// into the callee's registers before returning.
			callArgs := vm.objScratch[:0]
			for _, r := range in.Args {
				callArgs = append(callArgs, fr.regs[r])
			}
			vm.objScratch = callArgs[:0]
			nf, err := vm.newFrame(int(in.Imm), callArgs)
			clear(callArgs) // drop scratch references so staged args don't outlive their frame
			if err != nil {
				return stack, false, nil, err
			}
			nf.dst = in.Dst
			fr.pc++
			stack = append(stack, nf)

		case OpInvokeClosure:
			if len(stack) >= vm.maxDepth {
				return stack, false, nil, fmt.Errorf("vm: call stack overflow (%d frames)", len(stack))
			}
			if done != nil {
				select {
				case <-done:
					return stack, false, nil, ctx.Err()
				default:
				}
			}
			clo, ok := fr.regs[in.A].(*Closure)
			if !ok {
				return stack, false, nil, fmt.Errorf("vm: InvokeClosure on %T", fr.regs[in.A])
			}
			callArgs := vm.objScratch[:0]
			callArgs = append(callArgs, clo.Free...)
			for _, r := range in.Args {
				callArgs = append(callArgs, fr.regs[r])
			}
			vm.objScratch = callArgs[:0]
			nf, err := vm.newFrame(clo.Fn, callArgs)
			clear(callArgs)
			if err != nil {
				return stack, false, nil, err
			}
			nf.dst = in.Dst
			fr.pc++
			stack = append(stack, nf)

		case OpInvokePacked:
			if err := vm.execPacked(fr, in); err != nil {
				return stack, false, nil, err
			}
			fr.pc++

		case OpAllocStorage:
			if err := vm.execAllocStorage(fr, in); err != nil {
				return stack, false, nil, err
			}
			fr.pc++

		case OpAllocTensor:
			st, err := asStorage(fr.regs[in.A])
			if err != nil {
				return stack, false, nil, err
			}
			t, err := st.tensorAt(tensor.DType(in.DType), tensor.Shape(in.Shape), int(in.Imm))
			if err != nil {
				return stack, false, nil, err
			}
			fr.regs[in.Dst] = &TensorObj{T: t, Device: st.Device, Backing: st}
			fr.pc++

		case OpAllocTensorReg:
			st, err := asStorage(fr.regs[in.A])
			if err != nil {
				return stack, false, nil, err
			}
			shObj, err := asTensor(fr.regs[in.B])
			if err != nil {
				return stack, false, nil, err
			}
			shape, err := shObj.T.ToShape()
			if err != nil {
				return stack, false, nil, err
			}
			t, err := st.tensorAt(tensor.DType(in.DType), shape, 0)
			if err != nil {
				return stack, false, nil, err
			}
			fr.regs[in.Dst] = &TensorObj{T: t, Device: st.Device, Backing: st}
			fr.pc++

		case OpAllocADT:
			fields := make([]Object, len(in.Args))
			for i, r := range in.Args {
				fields[i] = fr.regs[r]
			}
			fr.regs[in.Dst] = &ADT{Tag: int(in.Imm), Fields: fields}
			fr.pc++

		case OpAllocClosure:
			free := make([]Object, len(in.Args))
			for i, r := range in.Args {
				free[i] = fr.regs[r]
			}
			fr.regs[in.Dst] = &Closure{Fn: int(in.Imm), Free: free}
			fr.pc++

		case OpGetField:
			adt, err := asADT(fr.regs[in.A])
			if err != nil {
				return stack, false, nil, err
			}
			if int(in.Imm) < 0 || int(in.Imm) >= len(adt.Fields) {
				return stack, false, nil, fmt.Errorf("vm: GetField index %d out of range (%d fields)", in.Imm, len(adt.Fields))
			}
			fr.regs[in.Dst] = adt.Fields[in.Imm]
			fr.pc++

		case OpGetTag:
			adt, err := asADT(fr.regs[in.A])
			if err != nil {
				return stack, false, nil, err
			}
			fr.regs[in.Dst] = NewTensorObj(tensor.ScalarI64(int64(adt.Tag)))
			fr.pc++

		case OpIf:
			eq, err := scalarEqual(fr.regs[in.A], fr.regs[in.B])
			if err != nil {
				return stack, false, nil, err
			}
			if eq {
				fr.pc += in.Off1
			} else {
				fr.pc += in.Off2
			}

		case OpGoto:
			if in.Off1 < 0 {
				// Backward jump: the only way bytecode loops without a call.
				if done != nil {
					select {
					case <-done:
						return stack, false, nil, ctx.Err()
					default:
					}
				}
				if in.B == 1 {
					// Loop back edge (compiled self tail call): the next
					// iteration's arguments are already in the parameter
					// registers, so everything this frame allocated that they
					// do not reach is this iteration's garbage.
					vm.recycleLoopFrame(fr)
					// Park exactly here: one iteration ran, its garbage is
					// recycled, and the pc already points at the loop head.
					fr.pc += in.Off1
					if prof != nil && prof.Timing {
						prof.OtherTime += time.Since(tStart)
					}
					return stack, true, nil, nil
				}
			}
			fr.pc += in.Off1

		case OpLoadConst:
			if int(in.Imm) < 0 || int(in.Imm) >= len(vm.exe.Consts) {
				return stack, false, nil, fmt.Errorf("vm: constant index %d out of range", in.Imm)
			}
			// Constants are shared by reference; kernels never mutate their
			// inputs, which is the copy-on-write discipline of §5.2. The
			// register object is shared too, unless Consts grew outside
			// AddConst.
			if objs := vm.exe.constObjs; int(in.Imm) < len(objs) {
				fr.regs[in.Dst] = objs[in.Imm]
			} else {
				fr.regs[in.Dst] = &TensorObj{T: vm.exe.Consts[in.Imm], Device: ir.CPU(0)}
			}
			fr.pc++

		case OpLoadConsti:
			if uint64(in.Imm) < uint64(len(smallInts)) {
				fr.regs[in.Dst] = smallInts[in.Imm]
			} else {
				fr.regs[in.Dst] = NewTensorObj(tensor.ScalarI64(in.Imm))
			}
			fr.pc++

		case OpDeviceCopy:
			src, err := asTensor(fr.regs[in.A])
			if err != nil {
				return stack, false, nil, err
			}
			dst := ir.Device{Type: ir.DeviceType(in.Device), ID: in.DeviceID}
			// On the host substrate a cross-device copy is a clone into the
			// destination domain; the platform simulator charges transfer
			// cost by CopyBytes.
			fr.regs[in.Dst] = &TensorObj{T: src.T.Clone(), Device: dst}
			if prof != nil {
				prof.CopyBytes += int64(src.T.NumBytes())
			}
			fr.pc++

		case OpShapeOf:
			t, err := asTensor(fr.regs[in.A])
			if err != nil {
				return stack, false, nil, err
			}
			// shape_of reads metadata only, so it works "regardless of which
			// device [the tensor] is placed on" (§4.4) and its result lives
			// on the CPU.
			fr.regs[in.Dst] = NewTensorObj(tensor.ShapeTensor(t.T.Shape()))
			fr.pc++

		case OpReshapeTensor:
			t, err := asTensor(fr.regs[in.A])
			if err != nil {
				return stack, false, nil, err
			}
			shObj, err := asTensor(fr.regs[in.B])
			if err != nil {
				return stack, false, nil, err
			}
			shape, err := shObj.T.ToShape()
			if err != nil {
				return stack, false, nil, err
			}
			rt, err := t.T.Reshape(shape...)
			if err != nil {
				return stack, false, nil, err
			}
			fr.regs[in.Dst] = &TensorObj{T: rt, Device: t.Device, Backing: t.Backing}
			fr.pc++

		case OpFatal:
			return stack, false, nil, fmt.Errorf("vm: Fatal raised in %s at pc %d", vm.exe.Funcs[fr.fn].Name, fr.pc)

		default:
			return stack, false, nil, fmt.Errorf("vm: unknown opcode %d", in.Op)
		}

		if prof != nil && prof.Timing && in.Op != OpInvokePacked {
			prof.OtherTime += time.Since(tStart)
		}
	}
}

func (vm *VM) execPacked(fr *frame, in Instruction) error {
	// Kernel pointers were pre-resolved at entry; a slot can still be
	// nil after deserialization without LinkKernels, surfaced here.
	idx := int(in.Imm)
	if idx < 0 || idx >= len(vm.kernels) {
		return fmt.Errorf("vm: kernel index %d out of range", idx)
	}
	kernel := vm.kernels[idx]
	if kernel == nil {
		return fmt.Errorf("vm: kernel %q is unlinked; call LinkKernels after deserialization", vm.exe.KernelNames[idx])
	}
	hasOut := in.B == 1
	nIn := len(in.Args)
	if hasOut {
		nIn--
	}
	args := vm.tensorScratch[:0]
	for i := 0; i < nIn; i++ {
		t, err := asTensor(fr.regs[in.Args[i]])
		if err != nil {
			return fmt.Errorf("vm: kernel %s arg %d: %w", vm.exe.KernelNames[in.Imm], i, err)
		}
		args = append(args, t.T)
	}
	vm.tensorScratch = args[:0]
	var out *tensor.Tensor
	var outObj *TensorObj
	dev := ir.CPU(0)
	if hasOut {
		to, err := asTensor(fr.regs[in.Args[nIn]])
		if err != nil {
			return fmt.Errorf("vm: kernel %s out buffer: %w", vm.exe.KernelNames[in.Imm], err)
		}
		out = to.T
		outObj = to
		dev = to.Device
		if to.Backing == nil {
			// The destination is not a VM-allocated buffer. Planned calls
			// always write alloc_tensor results (which carry their storage),
			// so this is an in-place operator routed onto a value that
			// flowed in from outside the planner — a constant loaded by
			// reference, or a caller-supplied input. Mutating those would
			// corrupt shared state; dropping the destination sends the
			// kernel down its pure allocate-and-copy path instead.
			out = nil
			outObj = nil
		}
	}
	var start time.Time
	timing := vm.prof != nil && vm.prof.Timing
	if timing {
		start = time.Now()
	}
	res, err := kernel(args, out)
	// Drop the staged argument references immediately: the scratch backing
	// array must not pin the previous call's tensors past their frame.
	clear(args)
	if err != nil {
		return fmt.Errorf("vm: kernel %s: %w", vm.exe.KernelNames[in.Imm], err)
	}
	if timing {
		d := time.Since(start)
		vm.prof.KernelTime += d
		vm.prof.KernelTimes[vm.exe.KernelNames[in.Imm]] += d
		// Per-kernel name counts ride along with timing; the cheap
		// counts-only mode uses Counts[OpInvokePacked] instead.
		vm.prof.KernelCounts[vm.exe.KernelNames[in.Imm]]++
	}
	if vm.sink != nil && idx == vm.sinkKernel {
		// stream.emit under an attached sink: deliver a deep copy — the
		// live result may sit in a pooled buffer the loop recycles — and
		// let a sink error cancel the producing program.
		if err := vm.sink(res.Clone()); err != nil {
			return fmt.Errorf("vm: stream sink: %w", err)
		}
	}
	if res == out && outObj != nil {
		// Destination-passing hit: the kernel wrote the planned buffer, so
		// the result register can share the buffer's object wholesale.
		// Objects are immutable after construction (§5.2's copy-on-write
		// discipline), making the alias safe.
		fr.regs[in.Dst] = outObj
		return nil
	}
	var backing *Storage
	if outObj != nil {
		backing = outObj.Backing
	}
	fr.regs[in.Dst] = &TensorObj{T: res, Device: dev, Backing: backing}
	return nil
}

// releaseFrame returns every storage in the frame's registers to the pool
// unless it backs (part of) the escaping return value.
func (vm *VM) releaseFrame(fr *frame, ret Object) {
	if vm.pool == nil {
		return
	}
	keep := vm.keepScratch
	clear(keep)
	collectStorages(ret, keep)
	for _, o := range fr.regs {
		switch v := o.(type) {
		case *Storage:
			if !keep[v] {
				vm.pool.release(v)
				keep[v] = true // avoid double release via aliased registers
			}
		}
	}
	// Storages acquired by this frame whose registers were since overwritten
	// (loop-carried buffers threaded through parameters, then replaced) are
	// reachable only through the alloc list.
	for i, st := range fr.allocs {
		if !keep[st] {
			vm.pool.release(st)
			keep[st] = true
		}
		fr.allocs[i] = nil
	}
	fr.allocs = fr.allocs[:0]
}

// recycleLoopFrame runs at a compiled loop's back edge: every storage the
// frame has acquired that is not reachable from the next iteration's
// parameter registers goes back to the pool, giving tail-call loops the
// same steady-state allocation profile OpRet gives call-per-iteration
// recursion. Non-parameter registers are cleared so a stale object can
// neither resurrect a released storage in a later scan nor dangle into the
// next iteration.
func (vm *VM) recycleLoopFrame(fr *frame) {
	np := vm.exe.Funcs[fr.fn].NumParams
	if vm.pool != nil && len(fr.allocs) > 0 {
		keep := vm.keepScratch
		clear(keep)
		for _, o := range fr.regs[:np] {
			collectStorages(o, keep)
		}
		live := fr.allocs[:0]
		for _, st := range fr.allocs {
			if keep[st] {
				live = append(live, st)
			} else {
				vm.pool.release(st)
			}
		}
		clear(fr.allocs[len(live):])
		fr.allocs = live
	}
	clear(fr.regs[np:])
}

// collectStorages walks an object graph recording every storage that backs
// reachable tensor data.
func collectStorages(o Object, set map[*Storage]bool) {
	switch v := o.(type) {
	case *TensorObj:
		if v.Backing != nil {
			set[v.Backing] = true
		}
	case *Storage:
		set[v] = true
	case *ADT:
		for _, f := range v.Fields {
			collectStorages(f, set)
		}
	case *Closure:
		for _, f := range v.Free {
			collectStorages(f, set)
		}
	}
}

func (vm *VM) execAllocStorage(fr *frame, in Instruction) error {
	size := int(in.Imm)
	if in.A >= 0 {
		// Dynamic size: the register holds the output shape computed by a
		// shape function; the element size comes from the dtype payload.
		shObj, err := asTensor(fr.regs[in.A])
		if err != nil {
			return err
		}
		shape, err := shObj.T.ToShape()
		if err != nil {
			return err
		}
		size = shape.NumElements() * tensor.DType(in.DType).Size()
	}
	dev := ir.Device{Type: ir.DeviceType(in.Device), ID: in.DeviceID}
	if dev.IsUnknown() {
		dev = ir.CPU(0)
	}
	var st *Storage
	reused := false
	if vm.pool != nil {
		st, reused = vm.pool.acquire(size, dev)
	}
	if st == nil {
		st = &Storage{SizeBytes: size, Device: dev}
	}
	if vm.pool != nil {
		// Track the acquisition so loop back edges (and frame exit) can
		// release it without a register still pointing at it.
		fr.allocs = append(fr.allocs, st)
	}
	if vm.prof != nil {
		vm.prof.AllocBytes += int64(size)
		if reused {
			vm.prof.AllocReuses++
		} else {
			vm.prof.AllocFresh++
		}
	}
	fr.regs[in.Dst] = st
	return nil
}

// storagePool is the runtime free list that serves dynamic allocations whose
// sizes are unknown at compile time: storages are binned by {device,
// power-of-two size class} and handed back out on later requests, cutting
// both allocation count and latency (§6.3). Indexing on the device makes
// acquire O(1) — a LIFO pop — where a class-only index had to scan past
// storages parked on other devices.
type storagePool struct {
	classes map[poolKey][]*Storage
	// shared, when attached, is the cross-VM tier: local misses draw from
	// it and local overflow donates to it, so buffer memory migrates to
	// whichever VM (of whichever program) is hot instead of being dropped.
	shared *SharedStoragePool
}

// poolKey bins free storages by device and size class.
type poolKey struct {
	dev ir.Device
	cls int
}

func newStoragePool() *storagePool { return &storagePool{classes: map[poolKey][]*Storage{}} }

// minSizeClass floors every request at one cache line (64 bytes): a
// zero-byte request (an empty dynamic result, e.g. slicing an upper-bound
// output down to nothing) would otherwise land in class 0 and mint a
// useless 1-byte storage that later same-class requests keep missing.
const minSizeClass = 6

func sizeClass(size int) int {
	if size <= 1<<minSizeClass {
		return minSizeClass
	}
	return bits.Len(uint(size - 1)) // ceil(log2(size))
}

// acquire returns a pooled storage of at least `size` bytes on dev, growing
// the request to its size class so later requests in the same class hit.
// LIFO order hands back the most recently released storage, whose backing
// slices are most likely still cache-resident.
func (p *storagePool) acquire(size int, dev ir.Device) (*Storage, bool) {
	key := poolKey{dev: dev, cls: sizeClass(size)}
	if list := p.classes[key]; len(list) > 0 {
		st := list[len(list)-1]
		p.classes[key] = list[:len(list)-1]
		return st, true
	}
	if p.shared != nil {
		if st, ok := p.shared.acquire(size, dev); ok {
			return st, true
		}
	}
	// Allocate at the class ceiling so the storage is maximally reusable.
	return &Storage{SizeBytes: 1 << key.cls, Device: dev}, false
}

// release returns a storage to the pool; the VM calls it when a kill
// instruction (lowered to storage release) frees a buffer.
func (p *storagePool) release(st *Storage) {
	key := poolKey{dev: st.Device, cls: sizeClass(st.SizeBytes)}
	if len(p.classes[key]) < 64 { // bound pool growth
		p.classes[key] = append(p.classes[key], st)
		return
	}
	if p.shared != nil {
		p.shared.donate(st) // overflow migrates instead of dying
	}
}
