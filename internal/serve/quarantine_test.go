package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nimble/internal/compiler"
	"nimble/internal/models"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// compileMLPWithBomb compiles an MLP whose kernels panic whenever the
// armed flag is set — the controlled stand-in for the ~77 real panic sites
// reachable from the request path.
func compileMLPWithBomb(t testing.TB) (*models.MLP, *compiler.Result, *bombControl) {
	t.Helper()
	m := models.NewMLP(models.MLPConfig{In: 16, Hidden: 32, Out: 8, Layers: 2, Seed: 45})
	res, err := compiler.Compile(m.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctl := &bombControl{}
	err = res.Exe.WrapKernels(func(name string, fn vm.PackedFunc) vm.PackedFunc {
		return func(args []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) {
			if ctl.armed() {
				panic(fmt.Sprintf("test bomb in kernel %s", name))
			}
			return fn(args, out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, res, ctl
}

type bombControl struct {
	mu sync.Mutex
	on bool
}

func (b *bombControl) arm(v bool) {
	b.mu.Lock()
	b.on = v
	b.mu.Unlock()
}

func (b *bombControl) armed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.on
}

// TestSessionPanicBecomesErrInternal: a kernel panic surfaces as a typed
// *InternalError carrying the entry name and a sanitized stack, not as a
// process crash.
func TestSessionPanicBecomesErrInternal(t *testing.T) {
	m, res, ctl := compileMLPWithBomb(t)
	p, err := NewPool(res.Exe, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := m.RandomBatch(rand.New(rand.NewSource(1)), 2)

	ctl.arm(true)
	_, err = invokeTensors(context.Background(), p, "main", in)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("panicked invoke error = %v, want ErrInternal", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("error %T does not unwrap to *InternalError", err)
	}
	if ie.Entry != "main" {
		t.Errorf("InternalError.Entry = %q, want main", ie.Entry)
	}
	if ie.Stack == "" {
		t.Error("InternalError.Stack is empty")
	}
	if errors.Is(err, ErrCanceled) {
		t.Error("internal fault must not classify as cancellation")
	}
}

// TestPoolQuarantinesPoisonedSession: after a panic the poisoned session
// is replaced by a fresh VM — pool size conserved, the poisoned machine
// out of circulation forever — and subsequent requests compute correct
// results (nothing from the faulted execution resurfaces).
func TestPoolQuarantinesPoisonedSession(t *testing.T) {
	m, res, ctl := compileMLPWithBomb(t)
	p, err := NewPool(res.Exe, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	in := m.RandomBatch(rng, 3)

	// Reference output from an identically-seeded clean model.
	refM := models.NewMLP(models.MLPConfig{In: 16, Hidden: 32, Out: 8, Layers: 2, Seed: 45})
	refVM, _, err := compiler.CompileToVM(refM.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := refVM.InvokeTensors("main", in)
	if err != nil {
		t.Fatal(err)
	}

	// Identify the session that will serve (LIFO: top of the free stack),
	// then poison it.
	s0, _ := p.Acquire(context.Background())
	poisonedMachine := s0.machine
	p.Release(s0)

	ctl.arm(true)
	if _, err := invokeTensors(context.Background(), p, "main", in); !errors.Is(err, ErrInternal) {
		t.Fatalf("want ErrInternal, got %v", err)
	}
	ctl.arm(false)

	if got := p.Size(); got != 2 {
		t.Fatalf("pool size after quarantine = %d, want 2", got)
	}
	st := p.Stats()
	if st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after quarantine, want 0 (no leaked checkout)", st.InFlight)
	}

	// The poisoned machine never comes back: drain every session and check
	// machine identity; then verify results are still correct.
	a, _ := p.Acquire(context.Background())
	b, _ := p.Acquire(context.Background())
	if a.machine == poisonedMachine || b.machine == poisonedMachine {
		t.Fatal("poisoned VM resurfaced in the pool")
	}
	p.Release(a)
	p.Release(b)
	for i := 0; i < 8; i++ {
		got, err := invokeTensors(context.Background(), p, "main", in)
		if err != nil {
			t.Fatalf("post-quarantine invoke %d: %v", i, err)
		}
		if !got.AllClose(want, 1e-5, 1e-6) {
			t.Fatalf("post-quarantine output differs from reference (buffer contamination?)")
		}
	}
}

// TestQuarantineUnderConcurrency: panics racing real traffic never change
// the pool's size and never wedge it.
func TestQuarantineUnderConcurrency(t *testing.T) {
	m, res, ctl := compileMLPWithBomb(t)
	p, err := NewPool(res.Exe, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := m.RandomBatch(rand.New(rand.NewSource(3)), 2)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ctl.arm(i%5 == g%5) // waves of faults interleaved with clean traffic
				_, err := invokeTensors(context.Background(), p, "main", in)
				if err != nil && !errors.Is(err, ErrInternal) {
					t.Errorf("unexpected error class: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ctl.arm(false)
	if p.Size() != 4 {
		t.Fatalf("pool size = %d, want 4", p.Size())
	}
	if st := p.Stats(); st.InFlight != 0 {
		t.Fatalf("InFlight = %d, want 0", st.InFlight)
	}
	// Pool still serves.
	if _, err := invokeTensors(context.Background(), p, "main", in); err != nil {
		t.Fatalf("pool unusable after concurrent quarantines: %v", err)
	}
}
