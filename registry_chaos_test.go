package nimble

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nimble/internal/faults"
	"nimble/internal/models"
	"nimble/internal/tensor"
)

// TestChaosRegistrySwap drives the fault injector through a canary rollout:
// v1's kernels panic, simulate OOM, and stall on a seeded schedule while
// concurrent clients hammer the model and the control plane deploys a clean
// v2 canary and promotes it mid-storm. Run under -race (the registry-smoke
// and chaos Make targets do). The invariants:
//
//   - every request resolves to a typed error or to the per-input reference
//     output — both versions carry the same weights, so a success is
//     correct regardless of which side of the split served it;
//   - once the promotion is visible, no request started after it may see
//     ErrInternal: v1's poisoned and quarantined sessions must be
//     unreachable, not merely improbable;
//   - session pools conserve their size across every program, and the
//     shared storage tier's accounting survives the storm (nothing
//     double-handed, resident never negative);
//   - the registry serves correctly after the faults stop.
func TestChaosRegistrySwap(t *testing.T) {
	seeds := []uint64{5, 23}
	iters := 60
	if os.Getenv("NIMBLE_CHAOS_LONG") != "" {
		seeds = []uint64{2, 5, 13, 23, 77}
		iters = 300
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runRegistrySwapChaos(t, seed, iters)
		})
	}
}

func runRegistrySwapChaos(t *testing.T, seed uint64, iters int) {
	const clients = 16
	const workers = 4
	ctx := context.Background()
	mcfg := models.MLPConfig{In: 12, Hidden: 24, Out: 6, Layers: 2, Seed: 21}

	// Per-input references from a clean session: the contamination oracle.
	clean, err := Compile(models.NewMLP(mcfg).Module)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	m := models.NewMLP(mcfg)
	inputs := make([]*tensor.Tensor, clients)
	want := make([]*tensor.Tensor, clients)
	ref := clean.NewSession()
	for i := range inputs {
		inputs[i] = m.RandomBatch(rng, 1+i%4)
		out, err := ref.Invoke(ctx, "main", TensorValue(inputs[i]))
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = out.Tensor()
	}
	ref.Close()

	// v1 gets the faulty kernel table; v2 (deployed mid-storm) is clean.
	faulty, err := Compile(models.NewMLP(mcfg).Module)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(faults.Config{
		Seed:             seed,
		PanicPer1024:     40,
		AllocFailPer1024: 20,
		SlowPer1024:      60,
		CancelPer1024:    128,
	})
	if err := inj.WrapExecutable(faulty.exe); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry(
		WithRegistrySeed(seed),
		WithServeDefaults(
			WithWorkers(workers),
			WithMaxQueue(8),
			WithRequestTimeout(2*time.Second),
			WithBreaker(1000, 10*time.Millisecond), // poison is the subject, keep the gate open
		),
		WithDrainTimeout(30*time.Second),
	)
	defer r.Close()
	if _, err := r.Deploy("mlp", faulty); err != nil {
		t.Fatal(err)
	}

	// promoted flips before any request that must be fault-free starts; a
	// request loads it BEFORE invoking, so an ErrInternal seen with the
	// flag up proves a poisoned v1 session served post-promotion traffic.
	var promoted atomic.Bool
	var ok, internal, internalPost, overloaded, canceled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := TensorValue(inputs[g])
			for i := 0; i < iters; i++ {
				afterPromote := promoted.Load()
				reqCtx := ctx
				cancelFn := context.CancelFunc(func() {})
				if after, doCancel := inj.CancelRequest(3 * time.Millisecond); doCancel {
					reqCtx, cancelFn = context.WithTimeout(reqCtx, after)
				}
				out, err := r.InvokeOpts(reqCtx, "mlp", "main", []Value{in}, WithRouteKey(fmt.Sprintf("client-%d", g)))
				cancelFn()
				switch {
				case err == nil:
					got, isTensor := out.Tensor()
					if !isTensor || !got.AllClose(want[g], 1e-5, 1e-6) {
						t.Errorf("client %d iter %d: success that matches no reference — contamination", g, i)
						return
					}
					ok.Add(1)
				case errors.Is(err, ErrInternal):
					internal.Add(1)
					if afterPromote {
						internalPost.Add(1)
						t.Errorf("client %d iter %d: ErrInternal after promotion — poisoned v1 resurfaced: %v", g, i, err)
						return
					}
				case errors.Is(err, ErrOverloaded):
					overloaded.Add(1)
				case errors.Is(err, ErrCanceled):
					canceled.Add(1)
				case errors.Is(err, ErrClosed):
					t.Errorf("client %d: ErrClosed while registry open", g)
					return
				default:
					t.Errorf("client %d: untyped error escaped the registry: %v", g, err)
					return
				}
			}
		}(g)
	}

	// The control plane, racing the storm: canary the clean build at 50%,
	// let both sides take faults/traffic, then promote. The drain that
	// retires faulty v1 runs while its kernels are still panicking and
	// stalling — exactly the window the swap protocol must survive.
	cleanV2, err := Compile(models.NewMLP(mcfg).Module)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if _, err := r.Deploy("mlp", cleanV2, WithCanary(50)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, err := r.Promote("mlp"); err != nil {
		t.Fatal(err)
	}
	promoted.Store(true)
	wg.Wait()

	if internalPost.Load() > 0 {
		t.FailNow()
	}
	if ok.Load() == 0 {
		t.Error("no request ever succeeded — fault rates drowned the signal")
	}

	// Conservation across programs: every live version's pool holds its
	// configured size with nothing checked out, and the shared tier's books
	// balance (each counter non-negative, resident bytes bounded below).
	time.Sleep(20 * time.Millisecond)
	for _, ms := range r.Models() {
		if len(ms.Versions) != 1 || ms.Versions[0].Version != "v2" {
			t.Fatalf("live set after promotion = %+v, want exactly v2", ms.Versions)
		}
		for _, vs := range ms.Versions {
			if vs.Stats.Pool.Workers != workers {
				t.Errorf("%s@%s pool size drifted: %d, want %d", ms.Name, vs.Version, vs.Stats.Pool.Workers, workers)
			}
			if vs.Stats.Pool.InFlight != 0 {
				t.Errorf("%s@%s leaked session checkouts: InFlight = %d", ms.Name, vs.Version, vs.Stats.Pool.InFlight)
			}
		}
	}
	if st := r.SharedStorageStats(); st.ResidentBytes < 0 || st.Hits < 0 || st.Donated < 0 || st.Dropped < 0 {
		t.Errorf("shared tier accounting corrupt after storm: %+v", st)
	}

	// Post-storm: the promoted version serves every input correctly, and no
	// ErrInternal can occur at all — the clean build has no faults to take.
	for g := 0; g < clients; g++ {
		var lastErr error
		for attempt := 0; attempt < 50; attempt++ {
			out, err := r.Invoke(ctx, "mlp", "main", TensorValue(inputs[g]))
			if err != nil {
				if errors.Is(err, ErrInternal) {
					t.Fatalf("post-promotion ErrInternal for input %d: poisoned v1 resurfaced: %v", g, err)
				}
				lastErr = err
				continue
			}
			got, _ := out.Tensor()
			if got == nil || !got.AllClose(want[g], 1e-5, 1e-6) {
				t.Fatalf("post-storm output for input %d wrong", g)
			}
			lastErr = nil
			break
		}
		if lastErr != nil {
			t.Fatalf("registry unusable after chaos (input %d): %v", g, lastErr)
		}
	}
	t.Logf("seed %d: ok=%d internal=%d overloaded=%d canceled=%d injected=%+v",
		seed, ok.Load(), internal.Load(), overloaded.Load(), canceled.Load(), inj.Stats())
}
