package vm_test

// Streaming autoregressive decode, pinned at the VM level:
//
//   - the streamed token sequence is byte-identical to the non-streaming
//     Invoke result (streaming is a tap, not a different execution);
//   - the compiled loop really is a loop: the bytecode of the decoder's
//     `loop` function ends in a backward Goto marked as a loop edge, with
//     no self-Invoke left;
//   - the KV-caches live in planner-managed buffers: state_zeros kernels
//     allocate them in the entry function and every cache_append executes
//     as a destination-carrying packed call (in.B == 1), with no
//     AllocStorage inside the loop body for the cache; and
//   - loop-edge recycling holds the storage pool at a steady state: a
//     second generation on the same session allocates no fresh storage.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"nimble/internal/compiler"
	"nimble/internal/models"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

func compileDecoder(t *testing.T) (*models.Decoder, *compiler.Result) {
	t.Helper()
	dec := models.NewDecoder(models.DefaultDecoderConfig())
	res, err := compiler.Compile(dec.Module, compiler.Options{})
	if err != nil {
		t.Fatalf("compile decoder: %v", err)
	}
	return dec, res
}

func runDecode(t *testing.T, machine *vm.VM, entry string, start int64) []int64 {
	t.Helper()
	out, err := machine.InvokeTensorsContext(context.Background(), entry, models.StartToken(start))
	if err != nil {
		t.Fatalf("%s: %v", entry, err)
	}
	return append([]int64(nil), out.I64()...)
}

func TestDecodeStreamMatchesInvoke(t *testing.T) {
	dec, res := compileDecoder(t)
	M := dec.Config.MaxNew

	for _, entry := range []string{"generate", "generate_sampled"} {
		machine := vm.New(res.Exe)
		want := runDecode(t, machine, entry, 7)
		if len(want) != M {
			t.Fatalf("%s: got %d tokens, want %d", entry, len(want), M)
		}

		var streamed []int64
		sink := func(tok *tensor.Tensor) error {
			if got := tok.DType(); got != tensor.Int64 {
				return fmt.Errorf("streamed dtype %v", got)
			}
			streamed = append(streamed, tok.I64()...)
			return nil
		}
		out, err := machine.InvokeStreamContext(context.Background(), sink, entry, vm.NewTensorObj(models.StartToken(7)))
		if err != nil {
			t.Fatalf("%s stream: %v", entry, err)
		}
		final, ok := out.(*vm.TensorObj)
		if !ok {
			t.Fatalf("%s stream result: %T, want tensor", entry, out)
		}
		if len(streamed) != M {
			t.Fatalf("%s: streamed %d tokens, want %d", entry, len(streamed), M)
		}
		for i, tok := range streamed {
			if tok != want[i] {
				t.Fatalf("%s: streamed token %d = %d, Invoke produced %d\nstream: %v\ninvoke: %v",
					entry, i, tok, want[i], streamed, want)
			}
		}
		for i, tok := range final.T.I64() {
			if tok != want[i] {
				t.Fatalf("%s: stream-run result token %d = %d, want %d", entry, i, tok, want[i])
			}
		}
	}
}

func TestDecodeDeterministicAndEntriesDiffer(t *testing.T) {
	_, res := compileDecoder(t)
	a := runDecode(t, vm.New(res.Exe), "generate", 3)
	b := runDecode(t, vm.New(res.Exe), "generate", 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("greedy decode not deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
	s1 := runDecode(t, vm.New(res.Exe), "generate_sampled", 3)
	s2 := runDecode(t, vm.New(res.Exe), "generate_sampled", 3)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("sampled decode not deterministic at %d: %d vs %d", i, s1[i], s2[i])
		}
	}
}

func TestDecodeSinkErrorAborts(t *testing.T) {
	_, res := compileDecoder(t)
	machine := vm.New(res.Exe)
	n := 0
	boom := fmt.Errorf("consumer gone")
	_, err := machine.InvokeStreamContext(context.Background(), func(*tensor.Tensor) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	}, "generate", vm.NewTensorObj(models.StartToken(1)))
	if err == nil || !strings.Contains(err.Error(), "consumer gone") {
		t.Fatalf("want sink error to abort the run, got %v", err)
	}
	if n != 3 {
		t.Fatalf("sink called %d times after aborting at 3", n)
	}
}

// TestDecodeLoopBytecode pins the compilation strategy: the loop function
// must contain a loop-marked backward Goto (tail call optimized away), no
// OpInvoke of itself, and cache_append must run as a destination-carrying
// invoke_mut; the caches' state_zeros allocations live in the entry.
func TestDecodeLoopBytecode(t *testing.T) {
	_, res := compileDecoder(t)
	exe := res.Exe

	find := func(name string) vm.VMFunc {
		for _, f := range exe.Funcs {
			if f.Name == name {
				return f
			}
		}
		t.Fatalf("no function %q in executable", name)
		return vm.VMFunc{}
	}
	loopFn := find("loop")
	loopIdx := -1
	for i, f := range exe.Funcs {
		if f.Name == "loop" {
			loopIdx = i
		}
	}

	kernelHas := func(idx int64, substr string) bool {
		return strings.Contains(exe.KernelNames[idx], substr)
	}

	backEdges, selfInvokes, cacheAppends, loopStateZeros, loopAllocs := 0, 0, 0, 0, 0
	for pc := loopFn.Start; pc < loopFn.Start+loopFn.Len; pc++ {
		in := exe.Code[pc]
		switch in.Op {
		case vm.OpGoto:
			if in.Off1 < 0 {
				backEdges++
				if in.B != 1 {
					t.Errorf("backward Goto at pc %d not marked as loop edge (B=%d)", pc, in.B)
				}
			}
		case vm.OpInvoke:
			if int(in.Imm) == loopIdx {
				selfInvokes++
			}
		case vm.OpInvokePacked:
			switch {
			case kernelHas(in.Imm, "cache_append"):
				cacheAppends++
				if in.B != 1 {
					t.Errorf("cache_append at pc %d lost its planned destination (B=%d)", pc, in.B)
				}
			case kernelHas(in.Imm, "state_zeros"):
				loopStateZeros++
			}
		case vm.OpAllocStorage:
			loopAllocs++
		}
	}
	if backEdges != 1 {
		t.Errorf("loop has %d backward Gotos, want exactly 1", backEdges)
	}
	if selfInvokes != 0 {
		t.Errorf("loop still self-Invokes %d times; tail call not optimized", selfInvokes)
	}
	// 2 layers × (K, V) + the token-output append.
	if cacheAppends != 5 {
		t.Errorf("loop executes %d cache_append invoke_muts, want 5", cacheAppends)
	}
	if loopStateZeros != 0 {
		t.Errorf("loop re-zeroes state %d times; state buffers must be allocated once in the entry", loopStateZeros)
	}

	entryFn := find("generate")
	entryStateZeros := 0
	for pc := entryFn.Start; pc < entryFn.Start+entryFn.Len; pc++ {
		in := exe.Code[pc]
		if in.Op == vm.OpInvokePacked && kernelHas(in.Imm, "state_zeros") {
			entryStateZeros++
		}
	}
	// out tokens + 2 layers × (K, V).
	if entryStateZeros != 5 {
		t.Errorf("entry allocates %d state_zeros buffers, want 5", entryStateZeros)
	}
}

// TestDecodeSteadyStateAllocs pins loop-edge recycling: after the first
// generation warms the pool, a second generation on the same session must
// serve every AllocStorage from the pool except exactly one — the result
// buffer, which escapes to the caller and so can never be recycled. Without
// recycleLoopFrame the tail-call loop would instead leak every iteration's
// buffers (the frame never exits), making this count grow with MaxNew.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	_, res := compileDecoder(t)
	machine := vm.New(res.Exe)
	prof := vm.NewProfiler()
	machine.SetProfiler(prof)

	runDecode(t, machine, "generate", 5)
	warm := prof.AllocFresh
	runDecode(t, machine, "generate", 5)
	if fresh := prof.AllocFresh - warm; fresh != 1 {
		t.Errorf("second generation allocated %d fresh storages, want 1 (the escaping result)", fresh)
	}
	if prof.AllocReuses == 0 {
		t.Errorf("no storage reuse recorded across two generations")
	}
}

// maxAllocsPerGenerate fences the Go allocations of one warmed greedy
// generation of 32 tokens at 16 per token. Constant loads share their
// objects, every storage goes back to the pool (a callee's returned buffers
// through its caller) and comes back with its tensor views, so a
// generation allocates about 180 objects (about 290 under -race, where
// sync.Pool drops its items).
const maxAllocsPerGenerate = 512

func TestGenerateAllocs(t *testing.T) {
	_, res := compileDecoder(t)
	machine := vm.New(res.Exe)
	run := func() {
		if _, err := machine.InvokeTensorsContext(context.Background(), "generate", models.StartToken(5)); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the storage pool and frame recycler
	n := testing.AllocsPerRun(10, run)
	t.Logf("warmed generate: %.0f allocs", n)
	if n > maxAllocsPerGenerate {
		t.Errorf("generate allocates %.0f objects, above the %d fence", n, maxAllocsPerGenerate)
	}
}
