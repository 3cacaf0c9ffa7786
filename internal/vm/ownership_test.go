package vm_test

// Storage ownership and the per-storage view cache, pinned over the
// paper's dynamic models:
//
//   - a storage the return value reaches passes to the caller, which
//     releases it in turn, so a warmed recursive model's next run
//     allocates only the storage behind its result;
//   - after every run, finished or aborted, no storage is free-listed twice
//     and none backs the returned value;
//   - cached views change nothing: a warmed pooled VM and a VM without the
//     pool give bit-identical outputs; and
//   - the warmed Tree-LSTM, LSTM and BERT stay under their Go allocation
//     fences.

import (
	"context"
	"math/rand"
	"testing"

	"nimble/internal/compiler"
	"nimble/internal/ir"
	"nimble/internal/models"
	"nimble/internal/vm"
)

// ownershipCase is one model entry and the argument sets a session runs in
// order.
type ownershipCase struct {
	name  string
	entry string
	exe   *vm.Executable
	args  [][]vm.Object
}

func mustCompile(t testing.TB, m *ir.Module) *compiler.Result {
	t.Helper()
	res, err := compiler.Compile(m, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// ownershipCases covers the recursive list (LSTM), the recursive ADT
// (Tree-LSTM), dynamic shapes (BERT, whose lengths 8 → 128 → 8 move every
// storage to a new size class and back) and the compiled decode loop.
func ownershipCases(t *testing.T) []ownershipCase {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	lstm := models.NewLSTM(models.LSTMConfig{Input: 16, Hidden: 24, Layers: 2, Seed: 42})
	tree := models.NewTreeLSTM(models.TreeLSTMConfig{Input: 12, Hidden: 10, Seed: 43})
	bert := models.NewBERT(models.BERTConfig{Layers: 1, Hidden: 32, Heads: 2, FFN: 64, Vocab: 128, MaxSeq: 128, Seed: 44})
	_, dec := compileDecoder(t)

	var bertArgs [][]vm.Object
	for _, n := range []int{8, 128, 8} {
		bertArgs = append(bertArgs, []vm.Object{vm.NewTensorObj(bert.RandomIDs(rng, n))})
	}
	return []ownershipCase{
		{"lstm", "main", mustCompile(t, lstm.Module).Exe, [][]vm.Object{
			{lstm.RandomSequence(rng, 5)}, {lstm.RandomSequence(rng, 9)}, {lstm.RandomSequence(rng, 2)},
		}},
		{"treelstm", "main", mustCompile(t, tree.Module).Exe, [][]vm.Object{
			{tree.ToObject(models.RandomTree(rng, 7, 12))},
			{tree.ToObject(models.RandomTree(rng, 13, 12))},
			{tree.ToObject(models.RandomTree(rng, 3, 12))},
		}},
		{"bert", "main", mustCompile(t, bert.Module).Exe, bertArgs},
		{"decoder", "generate", dec.Exe, [][]vm.Object{
			{vm.NewTensorObj(models.StartToken(5))}, {vm.NewTensorObj(models.StartToken(9))},
		}},
	}
}

// TestPoolInvariantAfterRuns runs every case twice over on one session and
// checks the pool after each run: no storage free-listed twice, none
// backing the result. A storage handed to the caller while also released
// to the pool is free-listed twice by the time the caller exits.
func TestPoolInvariantAfterRuns(t *testing.T) {
	for _, c := range ownershipCases(t) {
		machine := vm.New(c.exe)
		for round := 0; round < 2; round++ {
			for i, args := range c.args {
				out, err := machine.InvokeContext(context.Background(), c.entry, args...)
				if err != nil {
					t.Fatalf("%s run %d.%d: %v", c.name, round, i, err)
				}
				if err := vm.CheckPool(machine, out); err != nil {
					t.Fatalf("%s run %d.%d: %v", c.name, round, i, err)
				}
			}
		}
	}
}

// TestPoolInvariantAfterAbortedStream parks a decode run after two loop
// iterations, aborts it, and checks that the parked frames' storages went
// back exactly once; the next full generation must still match a fresh
// session's.
func TestPoolInvariantAfterAbortedStream(t *testing.T) {
	_, res := compileDecoder(t)
	want := runDecode(t, vm.New(res.Exe), "generate", 4)

	machine := vm.New(res.Exe)
	runDecode(t, machine, "generate", 4) // warm the pool
	run, err := machine.BeginStream(nil, "generate", vm.NewTensorObj(models.StartToken(4)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if done, err := run.Step(context.Background()); done || err != nil {
			t.Fatalf("step %d: done=%v err=%v", i, done, err)
		}
	}
	run.Abort()
	if err := vm.CheckPool(machine, nil); err != nil {
		t.Fatalf("after abort: %v", err)
	}
	got := runDecode(t, machine, "generate", 4)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d after an aborted stream = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestTreeLSTMWarmRunAllocatesNoStorage: each node's h/c buffers pass to
// its parent, which releases them when it exits, so a second run over the
// same tree draws every storage from the pool but one: the buffer behind
// the result, which leaves the VM with it, as the decoder's does.
func TestTreeLSTMWarmRunAllocatesNoStorage(t *testing.T) {
	m := models.NewTreeLSTM(models.TreeLSTMConfig{Input: 12, Hidden: 10, Seed: 43})
	res := mustCompile(t, m.Module)
	tree := m.ToObject(models.RandomTree(rand.New(rand.NewSource(2)), 20, 12))
	machine := vm.New(res.Exe)
	prof := vm.NewProfiler()
	machine.SetProfiler(prof)
	if _, err := machine.InvokeContext(context.Background(), "main", tree); err != nil {
		t.Fatal(err)
	}
	warm := prof.AllocFresh
	if _, err := machine.InvokeContext(context.Background(), "main", tree); err != nil {
		t.Fatal(err)
	}
	if fresh := prof.AllocFresh - warm; fresh != 1 {
		t.Errorf("second run allocated %d fresh storages, want 1 (the escaping result)", fresh)
	}
}

// TestPooledMatchesUnpooled: a warmed pooled VM, whose storages come back
// with their cached views, gives bit-identical outputs to a VM that
// allocates every storage (and view) anew.
func TestPooledMatchesUnpooled(t *testing.T) {
	for _, c := range ownershipCases(t) {
		pooled, fresh := vm.New(c.exe), vm.New(c.exe)
		fresh.DisablePool()
		for _, args := range c.args { // warm every size class
			if _, err := pooled.InvokeContext(context.Background(), c.entry, args...); err != nil {
				t.Fatal(err)
			}
		}
		for i, args := range c.args {
			got, err := pooled.InvokeContext(context.Background(), c.entry, args...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.InvokeContext(context.Background(), c.entry, args...)
			if err != nil {
				t.Fatal(err)
			}
			if !got.(*vm.TensorObj).T.Equal(want.(*vm.TensorObj).T) {
				t.Errorf("%s run %d: the pooled VM's output differs from the unpooled VM's", c.name, i)
			}
		}
	}
}

// maxAllocsPerTree fences the Go allocations of one warmed Tree-LSTM run
// over a fixed 21-leaf (41-node) tree, the mean request of the serving
// benchmark's tree mix. Each node builds its (h, c) tuple, two objects,
// and little else: about 90 in all, about 170 under -race, where sync.Pool
// drops the kernels' scratch. Without ownership transfer and view caching
// the same run allocated about 1,700.
const maxAllocsPerTree = 400

func TestTreeLSTMAllocs(t *testing.T) {
	m := models.NewTreeLSTM(models.DefaultTreeLSTMConfig())
	res := mustCompile(t, m.Module)
	tree := m.ToObject(models.RandomTree(rand.New(rand.NewSource(7)), 21, m.Config.Input))
	machine := vm.New(res.Exe)
	run := func() {
		if _, err := machine.InvokeContext(context.Background(), "main", tree); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the storage pool and frame recycler
	n := testing.AllocsPerRun(10, run)
	t.Logf("warmed Tree-LSTM over 41 nodes: %.0f allocs", n)
	if n > maxAllocsPerTree {
		t.Errorf("Tree-LSTM allocates %.0f objects, above the %d fence", n, maxAllocsPerTree)
	}
}

// maxAllocsPerLSTMStep fences the Go allocations of one step of a warmed
// bare-VM LSTM, with no session or scheduler around it. Kernels write their
// planned buffers and pooled storages keep their views, so a step allocates
// about one object (8 over an 8-step run), about 3 under -race, where
// sync.Pool drops the kernels' scratch. A kernel that stopped writing its
// planned destination would add at least one object per call.
const maxAllocsPerLSTMStep = 6

func TestLSTMStepAllocs(t *testing.T) {
	m := models.NewLSTM(models.LSTMConfig{Input: 32, Hidden: 32, Layers: 1, Seed: 3})
	res := mustCompile(t, m.Module)
	const steps = 8
	seq := m.RandomSequence(rand.New(rand.NewSource(9)), steps)
	machine := vm.New(res.Exe)
	run := func() {
		if _, err := machine.InvokeContext(context.Background(), "main", seq); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the storage pool and frame recycler
	perStep := testing.AllocsPerRun(20, run) / steps
	t.Logf("warmed LSTM: %.1f allocs/step over %d steps", perStep, steps)
	if perStep > maxAllocsPerLSTMStep {
		t.Errorf("LSTM allocates %.1f objects a step, above the %d fence", perStep, maxAllocsPerLSTMStep)
	}
}

// maxAllocsPerBERTRequest fences the Go allocations of a warmed bare-VM
// BERT-reduced request, averaged over sequence lengths 8, 128 and 8: the
// switch to the long sequence and back must find its storages in the pool.
// A request allocates about 2,180 objects, about 2,200 under -race, most of
// them shape-function results and kernel-allocated tensors, a few per
// operator. Reading each value's shape once per chain took it from about
// 2,430.
const maxAllocsPerBERTRequest = 2300

func TestBERTAllocs(t *testing.T) {
	m := models.NewBERT(models.BERTReduced())
	res := mustCompile(t, m.Module)
	rng := rand.New(rand.NewSource(5))
	lengths := []int{8, 128, 8}
	ids := make([]vm.Object, len(lengths))
	for i, n := range lengths {
		ids[i] = vm.NewTensorObj(m.RandomIDs(rng, n))
	}
	machine := vm.New(res.Exe)
	run := func() {
		for _, x := range ids {
			if _, err := machine.InvokeContext(context.Background(), "main", x); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the storage pool and frame recycler at every length
	perRequest := testing.AllocsPerRun(5, run) / float64(len(lengths))
	t.Logf("warmed BERT over lengths %v: %.0f allocs/request", lengths, perRequest)
	if perRequest > maxAllocsPerBERTRequest {
		t.Errorf("BERT allocates %.0f objects a request, above the %d fence", perRequest, maxAllocsPerBERTRequest)
	}
}
