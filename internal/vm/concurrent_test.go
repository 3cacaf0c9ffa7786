package vm_test

// Concurrency conformance for the serving runtime: one frozen executable
// shared by many sessions must produce single-session results from 16
// goroutines, with no data race (CI runs this package under -race). The
// models are the paper's dynamic workloads: the recursive LSTM (dynamic
// control flow) and a BERT layer (dynamic data shapes — symbolic kernels
// and runtime shape functions on every dense).

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"nimble/internal/compiler"
	"nimble/internal/models"
	"nimble/internal/serve"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

const concurrentClients = 16

func TestConcurrentLSTMViaSessionPool(t *testing.T) {
	cfg := models.LSTMConfig{Input: 16, Hidden: 24, Layers: 1, Seed: 3}
	m := models.NewLSTM(cfg)
	res, err := compiler.Compile(m.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Per-client sequences of ragged lengths, with reference outputs from a
	// dedicated single-session VM over an identical compile.
	ref := models.NewLSTM(cfg)
	refVM, _, err := compiler.CompileToVM(ref.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	type job struct {
		seq  vm.Object
		want *tensor.Tensor
	}
	jobs := make([]job, concurrentClients)
	for i := range jobs {
		steps := make([]*tensor.Tensor, 2+i%5)
		for j := range steps {
			steps[j] = tensor.Random(rng, 1, 1, cfg.Input)
		}
		seq := models.SequenceToList(m.NilC.Tag, m.ConsC.Tag, steps)
		out, err := refVM.InvokeContext(context.Background(), "main", seq)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{seq: seq, want: out.(*vm.TensorObj).T}
	}

	sched, err := serve.NewScheduler(res.Exe, 4, nil, serve.SchedConfig{Entries: []serve.SchedEntry{{Name: "main"}}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < concurrentClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				j := jobs[(c+iter)%len(jobs)]
				out, err := invoke(sched, "main", j.seq)
				if err != nil {
					t.Errorf("client %d iter %d: %v", c, iter, err)
					return
				}
				got := out.(*vm.TensorObj).T
				if !got.AllClose(j.want, 1e-6, 1e-7) {
					t.Errorf("client %d iter %d: concurrent LSTM output diverged", c, iter)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if st := sched.SessionStats(); st.Errors != 0 {
		t.Errorf("scheduler recorded %d errors", st.Errors)
	}
}

func TestConcurrentBERTLayerViaSessionPool(t *testing.T) {
	cfg := models.BERTConfig{Layers: 1, Hidden: 32, Heads: 2, FFN: 64, Vocab: 128, MaxSeq: 32, Seed: 44}
	m := models.NewBERT(cfg)
	res, err := compiler.Compile(m.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := models.NewBERT(cfg)
	refVM, _, err := compiler.CompileToVM(ref.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	type job struct {
		ids  *tensor.Tensor
		want *tensor.Tensor
	}
	// Ragged sequence lengths exercise symbolic kernels under concurrency:
	// every dense dispatches on the runtime residue of its length.
	jobs := make([]job, concurrentClients)
	for i := range jobs {
		ids := m.RandomIDs(rng, 3+i%7)
		want, err := refVM.InvokeTensorsContext(context.Background(), "main", ids)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{ids: ids, want: want}
	}

	sched, err := serve.NewScheduler(res.Exe, 4, nil, serve.SchedConfig{Entries: []serve.SchedEntry{{Name: "main"}}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < concurrentClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				j := jobs[(c*3+iter)%len(jobs)]
				out, err := invoke(sched, "main", vm.NewTensorObj(j.ids))
				if err != nil {
					t.Errorf("client %d iter %d: %v", c, iter, err)
					return
				}
				if got := out.(*vm.TensorObj).T; !got.AllClose(j.want, 1e-6, 1e-7) {
					t.Errorf("client %d iter %d: concurrent BERT output diverged", c, iter)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestSessionStorageReuseSurvivesPooling pins the memory-planning payoff
// inside a pooled session: sequential requests through a one-session
// scheduler must reuse the first invocation's storages via the VM's
// runtime pool, keeping the per-step allocation count — scheduler work
// included — under the same fence the single-VM path honors (see
// internal/bench's alloc regression test).
func TestSessionStorageReuseSurvivesPooling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc calibration is timing-insensitive but not short")
	}
	const maxAllocsPerStep = 128
	cfg := models.LSTMConfig{Input: 32, Hidden: 32, Layers: 1, Seed: 3}
	m := models.NewLSTM(cfg)
	res, err := compiler.Compile(m.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := serve.NewScheduler(res.Exe, 1, nil, serve.SchedConfig{Entries: []serve.SchedEntry{{Name: "main"}}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	const steps = 8
	seq := m.RandomSequence(rng, steps)

	run := func() {
		if _, err := invoke(sched, "main", seq); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm this session's storage pool and frame recycler
	perInvoke := testing.AllocsPerRun(20, run)
	perStep := perInvoke / steps
	t.Logf("pooled session LSTM: %.0f allocs/invoke = %.1f allocs/step", perInvoke, perStep)
	if perStep > maxAllocsPerStep {
		t.Errorf("pooled session lost storage reuse: %.1f allocs/step exceeds the %d fence",
			perStep, maxAllocsPerStep)
	}
}

// TestPooledVMRejectsConfigMutation: SetProfiler and DisablePool must
// panic once a VM has been adopted as a serving session.
func TestPooledVMRejectsConfigMutation(t *testing.T) {
	e := vm.NewExecutable()
	e.AddFunc(vm.VMFunc{Name: "main", NumParams: 0, RegCount: 1, Start: 0, Len: 1})
	e.Code = []vm.Instruction{{Op: vm.OpLoadConsti, Dst: 0, Imm: 1}}
	machine := vm.New(e)
	machine.SetProfiler(vm.NewProfiler()) // legal before pooling
	machine.MarkPooled()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on pooled VM did not panic", name)
			}
		}()
		f()
	}
	mustPanic("SetProfiler", func() { machine.SetProfiler(nil) })
	mustPanic("DisablePool", func() { machine.DisablePool() })
}

// invoke serves one unary request through the scheduler: submit, then wait
// for the outcome.
func invoke(sched *serve.Scheduler, entry string, args ...vm.Object) (vm.Object, error) {
	r, err := sched.Submit(context.Background(), 0, false, entry, args...)
	if err != nil {
		return nil, err
	}
	return r.Wait()
}
