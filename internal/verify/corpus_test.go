package verify_test

// The negative corpus: one hand-mutated module or executable per invariant
// class in the catalog (docs/verifier.md). Each case seeds exactly the bug
// its invariant exists to catch and pins the rendered diagnostic with a
// golden file under testdata/, so a verifier regression shows up as a
// corpus diff, not a silently weaker check. Regenerate with
//
//	go test ./internal/verify/ -run Corpus -update
import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nimble/internal/ir"
	"nimble/internal/tensor"
	"nimble/internal/verify"
	"nimble/internal/vm"
)

var update = flag.Bool("update", false, "rewrite golden diagnostics under testdata/")

// ---- module-corpus builders ----------------------------------------------

func oneFunc(body ir.Expr, params ...*ir.Var) *ir.Module {
	m := ir.NewModule()
	m.AddFunc("main", ir.NewFunc(params, body, nil))
	return m
}

func allocStorage(size int) *ir.Call {
	return ir.CallOpAttrs(ir.OpAllocStorage, ir.Attrs{"size": size, "align": 64})
}

func allocTensor(storage *ir.Var, offset int, dims ...int) *ir.Call {
	return ir.CallOpAttrs(ir.OpAllocTensor,
		ir.Attrs{"shape": dims, "dtype": "float32", "offset": offset}, storage)
}

func invokeMut(opName string, args ...ir.Expr) *ir.Call {
	all := append([]ir.Expr{&ir.OpRef{Op: ir.MustGetOp(opName)}}, args...)
	return ir.NewCall(&ir.OpRef{Op: ir.MustGetOp(ir.OpInvokeMut)}, all, ir.Attrs{"num_outputs": 1})
}

func kill(v *ir.Var) *ir.Call { return ir.CallOp(ir.OpKill, v) }

func chain(bs []ir.Expr, vars []*ir.Var, result ir.Expr) ir.Expr {
	out := result
	for i := len(bs) - 1; i >= 0; i-- {
		out = ir.NewLet(vars[i], bs[i], out)
	}
	return out
}

var memChecks = verify.ModuleChecks{ANF: true, Memory: true}

// ---- executable-corpus builders ------------------------------------------

type exeFn struct {
	name    string
	nparams int
	regs    int
	code    []vm.Instruction
}

func buildExe(fns ...exeFn) *vm.Executable {
	e := vm.NewExecutable()
	for _, f := range fns {
		start := len(e.Code)
		e.Code = append(e.Code, f.code...)
		e.AddFunc(vm.VMFunc{
			Name: f.name, NumParams: f.nparams, RegCount: f.regs,
			Start: start, Len: len(f.code),
		})
	}
	return e
}

// ---- the corpus ----------------------------------------------------------

func corpus() []struct {
	name      string
	invariant string
	err       func() error
} {
	v := func(name string) *ir.Var { return ir.NewVar(name, nil) }
	return []struct {
		name      string
		invariant string
		err       func() error
	}{
		{
			// A binding value referencing a variable no scope defines: the
			// bytecode compiler would emit a read of a register nothing wrote.
			name: "ssa_scope", invariant: "ssa.scope",
			err: func() error {
				x, y, ghost := v("x"), v("y"), v("ghost")
				body := ir.NewLet(y, ir.CallOp("add", x, ghost), y)
				return verify.Module(oneFunc(body, x), "after dce", verify.ModuleChecks{})
			},
		},
		{
			// One Var node bound by two different lets: register assignment
			// would silently merge two distinct values.
			name: "ssa_single_def", invariant: "ssa.single-def",
			err: func() error {
				x, a := v("x"), v("a")
				body := ir.NewLet(a, x, ir.NewLet(a, x, a))
				return verify.Module(oneFunc(body, x), "after dce", verify.ModuleChecks{})
			},
		},
		{
			// A checked type that contradicts the operator's own type
			// relation, plus operands the relation outright rejects.
			name: "type_op", invariant: "type.op",
			err: func() error {
				x1 := ir.NewVar("x1", ir.TT(tensor.Float32, 4))
				x2 := ir.NewVar("x2", ir.TT(tensor.Float32, 4))
				x1.SetCheckedType(ir.TT(tensor.Float32, 4))
				x2.SetCheckedType(ir.TT(tensor.Float32, 4))
				bad := ir.CallOp("add", x1, x2)
				bad.SetCheckedType(ir.TT(tensor.Float32, 8)) // relation says 4

				x3 := ir.NewVar("x3", ir.TT(tensor.Float32, 3))
				x3.SetCheckedType(ir.TT(tensor.Float32, 3))
				rejected := ir.CallOp("add", x1, x3) // 4 vs 3 never broadcasts
				rejected.SetCheckedType(ir.TT(tensor.Float32, 4))

				y, z := v("y"), v("z")
				body := ir.NewLet(y, bad, ir.NewLet(z, rejected, z))
				return verify.Module(oneFunc(body, x1, x2, x3), "after constant-fold", verify.ModuleChecks{})
			},
		},
		{
			// A compound call argument after the anf pass: every downstream
			// pass assumes one operation per binding.
			name: "anf_atomic", invariant: "anf.atomic",
			err: func() error {
				x, y := v("x"), v("y")
				body := ir.NewLet(y, ir.CallOp("add", ir.CallOp("exp", x), x), y)
				return verify.Module(oneFunc(body, x), "after anf", verify.ModuleChecks{ANF: true})
			},
		},
		{
			// Kill, then read: the recycled storage would be handed to the
			// next allocation while the old tensor still reads it.
			name: "ssa_use_after_kill", invariant: "ssa.use-after-kill",
			err: func() error {
				s1, a := v("s1"), v("a")
				s2, o := v("s2"), v("o")
				k, r := v("k"), v("r")
				bs := []ir.Expr{
					allocStorage(16), allocTensor(s1, 0, 4),
					allocStorage(16), allocTensor(s2, 0, 4),
					kill(a),
					invokeMut("add", a, a, o),
				}
				body := chain(bs, []*ir.Var{s1, a, s2, o, k, r}, r)
				return verify.Module(oneFunc(body), "after coalesce-storage", memChecks)
			},
		},
		{
			// The PR 2 bug class, reconstructed: an If merges two buffers
			// into one aliasing value, a kill recycles one side, and the
			// merged alias is read afterwards.
			name: "pr2_alias_kill", invariant: "ssa.use-after-kill",
			err: func() error {
				c := ir.NewVar("c", ir.BoolType())
				s1, a := v("s1"), v("a")
				s2, b := v("s2"), v("b")
				s3, o := v("s3"), v("o")
				t, k, r := v("t"), v("k"), v("r")
				bs := []ir.Expr{
					allocStorage(16), allocTensor(s1, 0, 4),
					allocStorage(16), allocTensor(s2, 0, 4),
					&ir.If{Cond: c, Then: a, Else: b},
					kill(a),
					allocStorage(16), allocTensor(s3, 0, 4),
					invokeMut("add", t, t, o),
				}
				body := chain(bs, []*ir.Var{s1, a, s2, b, t, k, s3, o, r}, r)
				return verify.Module(oneFunc(body, c), "after coalesce-storage", memChecks)
			},
		},
		{
			// Killing a buffer that still has a live non-consuming alias
			// (a reshape view): the view would read recycled storage.
			name: "mem_kill_consuming", invariant: "mem.kill-consuming",
			err: func() error {
				shp := v("shp")
				s1, a := v("s1"), v("a")
				rview, k := v("rview"), v("k")
				s2, o := v("s2"), v("o")
				bs := []ir.Expr{
					allocStorage(16), allocTensor(s1, 0, 4),
					ir.CallOp(ir.OpReshapeTensor, a, shp),
					kill(a),
					allocStorage(16), allocTensor(s2, 0, 4),
				}
				body := chain(bs, []*ir.Var{s1, a, rview, k, s2, o}, o)
				return verify.Module(oneFunc(body, shp), "after coalesce-storage", memChecks)
			},
		},
		{
			// Storage handed to a second tensor while the first tenant was
			// never killed and is still read — the exact overlap the
			// coalescing pass must never create.
			name: "mem_coalesce_overlap", invariant: "mem.coalesce-overlap",
			err: func() error {
				s, a, b, r := v("s"), v("a"), v("b"), v("r")
				bs := []ir.Expr{
					allocStorage(16),
					allocTensor(s, 0, 4),
					allocTensor(s, 0, 4),
					invokeMut("add", a, a, b),
				}
				body := chain(bs, []*ir.Var{s, a, b, r}, r)
				return verify.Module(oneFunc(body), "after coalesce-storage", memChecks)
			},
		},
		{
			// Killing a buffer that is threaded through the backward
			// self-call: the next iteration would read recycled storage.
			name: "mem_loop_carried", invariant: "mem.loop-carried",
			err: func() error {
				s, a, k := v("s"), v("a"), v("k")
				bs := []ir.Expr{
					allocStorage(16), allocTensor(s, 0, 4),
					kill(a),
				}
				tail := ir.NewCall(&ir.GlobalVar{Name: "main"}, []ir.Expr{a}, nil)
				body := chain(bs, []*ir.Var{s, a, k}, tail)
				x := v("x")
				return verify.Module(oneFunc(body, x), "after coalesce-storage", memChecks)
			},
		},
		{
			// A planned buffer smaller than what is stored in it: once via
			// alloc_tensor exceeding its storage, once via invoke_mut writing
			// a statically-larger result than the plan reserved.
			name: "mem_buffer_size", invariant: "mem.buffer-size",
			err: func() error {
				x := ir.NewVar("x", ir.TT(tensor.Float32, 8))
				s1, a := v("s1"), v("a")
				s2, o, r := v("s2"), v("o"), v("r")
				im := invokeMut("add", x, x, o)
				im.SetCheckedType(ir.TT(tensor.Float32, 8)) // 32 bytes into a 16-byte plan
				bs := []ir.Expr{
					allocStorage(8), allocTensor(s1, 0, 4), // 16 bytes into 8
					allocStorage(64), allocTensor(s2, 0, 4),
					im,
				}
				body := chain(bs, []*ir.Var{s1, a, s2, o, r}, r)
				return verify.Module(oneFunc(body, x), "after manifest-alloc", memChecks)
			},
		},
		{
			// invoke_mut destination discipline: an in-place operator aimed
			// at a buffer that is not its own first argument, a shared
			// constant as destination, and a num_outputs no argument backs.
			name: "mem_dest", invariant: "mem.dest",
			err: func() error {
				cache, row, idx, out, x := v("cache"), v("row"), v("idx"), v("out"), v("x")
				r1, r2, r3 := v("r1"), v("r2"), v("r3")
				wrongDest := invokeMut("cache_append", cache, row, idx, out)
				constDest := invokeMut("add", x, x, ir.Const(tensor.New(tensor.Float32, 4)))
				overclaim := ir.NewCall(&ir.OpRef{Op: ir.MustGetOp(ir.OpInvokeMut)},
					[]ir.Expr{&ir.OpRef{Op: ir.MustGetOp("add")}, x, x},
					ir.Attrs{"num_outputs": 5})
				bs := []ir.Expr{wrongDest, constDest, overclaim}
				body := chain(bs, []*ir.Var{r1, r2, r3}, r3)
				return verify.Module(oneFunc(body, cache, row, idx, out, x), "after manifest-alloc", memChecks)
			},
		},
		{
			// Function table lying about the code it owns: one descriptor
			// past the end of the stream, two descriptors claiming the same
			// instructions.
			name: "exe_func_table", invariant: "exe.func-table",
			err: func() error {
				e := buildExe(exeFn{name: "f", nparams: 1, regs: 1,
					code: []vm.Instruction{{Op: vm.OpRet, A: 0}}})
				e.AddFunc(vm.VMFunc{Name: "g", NumParams: 0, RegCount: 1, Start: 0, Len: 5})
				e.AddFunc(vm.VMFunc{Name: "h", NumParams: 0, RegCount: 1, Start: 0, Len: 1})
				return verify.Executable(e, "loaded executable")
			},
		},
		{
			// A register outside the frame the function declared.
			name: "exe_reg_bound", invariant: "exe.reg-bound",
			err: func() error {
				e := buildExe(exeFn{name: "f", nparams: 1, regs: 2, code: []vm.Instruction{
					{Op: vm.OpMove, Dst: 5, A: 0},
					{Op: vm.OpRet, A: 0},
				}})
				return verify.Executable(e, "loaded executable")
			},
		},
		{
			// Reads of registers not defined on every path: once via an If
			// branch that skips the definition, once via the loop back edge,
			// which clears every non-parameter register (recycleLoopFrame).
			name: "exe_reg_undef", invariant: "exe.reg-undef",
			err: func() error {
				e := buildExe(
					exeFn{name: "branch", nparams: 1, regs: 2, code: []vm.Instruction{
						{Op: vm.OpIf, A: 0, B: 0, Off1: 1, Off2: 2},
						{Op: vm.OpLoadConsti, Dst: 1, Imm: 5},
						{Op: vm.OpRet, A: 1}, // r1 undefined on the false path
					}},
					exeFn{name: "loop", nparams: 1, regs: 3, code: []vm.Instruction{
						{Op: vm.OpMove, Dst: 2, A: 1}, // r1 never survives the back edge
						{Op: vm.OpLoadConsti, Dst: 1, Imm: 1},
						{Op: vm.OpIf, A: 0, B: 0, Off1: 1, Off2: 2},
						{Op: vm.OpGoto, B: 1, Off1: -3},
						{Op: vm.OpRet, A: 2},
					}},
				)
				return verify.Executable(e, "loaded executable")
			},
		},
		{
			// Control-flow mutations: an unmarked backward Goto, an If that
			// does not jump strictly forward, and a function whose last
			// instruction falls off the end.
			name: "exe_cfg", invariant: "exe.cfg",
			err: func() error {
				e := buildExe(
					exeFn{name: "back", nparams: 1, regs: 1, code: []vm.Instruction{
						{Op: vm.OpLoadConsti, Dst: 0, Imm: 1},
						{Op: vm.OpGoto, B: 0, Off1: -1},
					}},
					exeFn{name: "spin", nparams: 1, regs: 1, code: []vm.Instruction{
						{Op: vm.OpIf, A: 0, B: 0, Off1: 0, Off2: 1},
						{Op: vm.OpRet, A: 0},
					}},
					exeFn{name: "dropoff", nparams: 1, regs: 1, code: []vm.Instruction{
						{Op: vm.OpMove, Dst: 0, A: 0},
					}},
				)
				return verify.Executable(e, "loaded executable")
			},
		},
		{
			// Dangling table indices: a kernel the executable does not have,
			// an Invoke whose arity contradicts the callee, a constant-pool
			// read past the end.
			name: "exe_index", invariant: "exe.index",
			err: func() error {
				e := buildExe(
					exeFn{name: "f", nparams: 1, regs: 2, code: []vm.Instruction{
						{Op: vm.OpInvokePacked, Dst: 1, Imm: 3, B: 0},
						{Op: vm.OpInvoke, Dst: 1, Imm: 1, Args: []vm.Reg{0}},
						{Op: vm.OpLoadConst, Dst: 1, Imm: 0},
						{Op: vm.OpRet, A: 1},
					}},
					exeFn{name: "g", nparams: 2, regs: 2, code: []vm.Instruction{
						{Op: vm.OpRet, A: 0},
					}},
				)
				return verify.Executable(e, "loaded executable")
			},
		},
		{
			// A stream.emit with no loop around it: the streaming entry
			// would emit exactly once and starve the consumer.
			name: "exe_stream_loop", invariant: "exe.stream-loop",
			err: func() error {
				e := buildExe(exeFn{name: "f", nparams: 1, regs: 2, code: []vm.Instruction{
					{Op: vm.OpInvokePacked, Dst: 1, Imm: 0, B: 0, Args: []vm.Reg{0}},
					{Op: vm.OpRet, A: 1},
				}})
				e.AddKernel(ir.OpStreamEmit, nil)
				return verify.Executable(e, "loaded executable")
			},
		},
		{
			// A tensor view provably larger than the storage it slices.
			name: "exe_storage_size", invariant: "exe.storage-size",
			err: func() error {
				e := buildExe(exeFn{name: "f", nparams: 1, regs: 3, code: []vm.Instruction{
					{Op: vm.OpAllocStorage, Dst: 1, A: -1, Imm: 8},
					{Op: vm.OpAllocTensor, Dst: 2, A: 1, Imm: 0, Shape: []int{4}, DType: uint8(tensor.Float32)},
					{Op: vm.OpRet, A: 2},
				}})
				return verify.Executable(e, "loaded executable")
			},
		},
		{
			// Panels of a dense_packed B one panel short of their units:
			// the row tile would read a panel past the end of the constant.
			name: "exe_packed_const", invariant: "exe.packed-const",
			err: func() error {
				e := buildExe(exeFn{name: "f", nparams: 1, regs: 2, code: []vm.Instruction{
					{Op: vm.OpLoadConst, Dst: 1, Imm: 0},
					{Op: vm.OpRet, A: 1},
				}})
				e.AddPackedConst(tensor.New(tensor.Float32, 4, 16), 17)
				return verify.Executable(e, "loaded executable")
			},
		},
	}
}

func TestCorpus(t *testing.T) {
	for _, tc := range corpus() {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err()
			if err == nil {
				t.Fatalf("seeded %s mutation was not caught", tc.invariant)
			}
			var ve *verify.Error
			if !errors.As(err, &ve) {
				t.Fatalf("error is %T, want *verify.Error: %v", err, err)
			}
			got := err.Error() + "\n"
			if !strings.Contains(got, "["+tc.invariant+"]") {
				t.Fatalf("diagnostic does not name invariant %s:\n%s", tc.invariant, got)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err2 := os.ReadFile(golden)
			if err2 != nil {
				t.Fatalf("missing golden (run with -update): %v", err2)
			}
			if got != string(want) {
				t.Errorf("diagnostic drifted from %s:\n--- want\n%s--- got\n%s", golden, want, got)
			}
		})
	}
}

// TestCorpusCoversCatalog pins that the corpus seeds at least one mutation
// per invariant family, so adding a catalog entry without a negative test
// fails here rather than silently.
func TestCorpusCoversCatalog(t *testing.T) {
	want := []string{
		"ssa.scope", "ssa.single-def", "ssa.use-after-kill",
		"type.op", "anf.atomic",
		"mem.dest", "mem.kill-consuming", "mem.coalesce-overlap",
		"mem.loop-carried", "mem.buffer-size",
		"exe.func-table", "exe.reg-bound", "exe.reg-undef",
		"exe.cfg", "exe.index", "exe.stream-loop", "exe.storage-size",
		"exe.packed-const",
	}
	have := map[string]bool{}
	for _, tc := range corpus() {
		have[tc.invariant] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("no corpus case seeds a %s violation", id)
		}
	}
}
