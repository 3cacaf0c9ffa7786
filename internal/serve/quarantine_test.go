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
	sc := newScheduler(t, res, 2)
	in := m.RandomBatch(rand.New(rand.NewSource(1)), 2)

	ctl.arm(true)
	_, err := invokeTensors(context.Background(), sc, "main", in)
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
// is replaced by a fresh VM — session count conserved, the poisoned
// machine out of circulation forever — and subsequent requests compute
// correct results (nothing from the faulted execution resurfaces).
func TestPoolQuarantinesPoisonedSession(t *testing.T) {
	m, res, ctl := compileMLPWithBomb(t)
	sc := newScheduler(t, res, 2)
	rng := rand.New(rand.NewSource(2))
	in := m.RandomBatch(rng, 3)

	// Reference output from an identically-seeded clean model.
	refM := models.NewMLP(models.MLPConfig{In: 16, Hidden: 32, Out: 8, Layers: 2, Seed: 45})
	refVM, _, err := compiler.CompileToVM(refM.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := refVM.InvokeTensorsContext(context.Background(), "main", in)
	if err != nil {
		t.Fatal(err)
	}

	// Identify the session that will serve (LIFO: top of the free stack),
	// then poison it.
	sc.mu.Lock()
	poisonedMachine := sc.free[len(sc.free)-1].machine
	sc.mu.Unlock()

	ctl.arm(true)
	if _, err := invokeTensors(context.Background(), sc, "main", in); !errors.Is(err, ErrInternal) {
		t.Fatalf("want ErrInternal, got %v", err)
	}
	ctl.arm(false)

	st := sc.SessionStats()
	if st.Workers != 2 || len(st.PerSession) != 2 {
		t.Fatalf("sessions after quarantine = %d (%v), want 2", st.Workers, st.PerSession)
	}
	if st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after quarantine, want 0 (no leaked session)", st.InFlight)
	}

	// The poisoned machine never comes back: every session is free again
	// and none runs it; then verify results are still correct.
	sc.mu.Lock()
	for _, s := range sc.free {
		if s.machine == poisonedMachine {
			t.Error("poisoned VM resurfaced on the free stack")
		}
	}
	if len(sc.free) != 2 {
		t.Errorf("%d sessions free after quarantine, want 2", len(sc.free))
	}
	sc.mu.Unlock()
	for i := 0; i < 8; i++ {
		got, err := invokeTensors(context.Background(), sc, "main", in)
		if err != nil {
			t.Fatalf("post-quarantine invoke %d: %v", i, err)
		}
		if !got.AllClose(want, 1e-5, 1e-6) {
			t.Fatalf("post-quarantine output differs from reference (buffer contamination?)")
		}
	}
}

// TestQuarantineUnderConcurrency: panics racing real traffic never change
// the session count and never wedge the scheduler.
func TestQuarantineUnderConcurrency(t *testing.T) {
	m, res, ctl := compileMLPWithBomb(t)
	sc := newScheduler(t, res, 4)
	in := m.RandomBatch(rand.New(rand.NewSource(3)), 2)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ctl.arm(i%5 == g%5) // waves of faults interleaved with clean traffic
				_, err := invokeTensors(context.Background(), sc, "main", in)
				if err != nil && !errors.Is(err, ErrInternal) {
					t.Errorf("unexpected error class: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ctl.arm(false)
	if st := sc.SessionStats(); st.Workers != 4 || len(st.PerSession) != 4 || st.InFlight != 0 {
		t.Fatalf("after concurrent quarantines: %+v, want 4 sessions, none held", st)
	}
	// The scheduler still serves.
	if _, err := invokeTensors(context.Background(), sc, "main", in); err != nil {
		t.Fatalf("scheduler unusable after concurrent quarantines: %v", err)
	}
}
