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

// TestChaosService is the fault-injection harness the fault-tolerance
// layer is pinned by: a Service whose kernels panic, simulate OOM, and
// stall on a deterministic seeded schedule, hammered by concurrent clients
// whose requests are additionally canceled mid-flight at random. Run under
// -race (the ci and chaos Make targets do). The invariants:
//
//   - the process survives — no injected panic escapes a request;
//   - the pool conserves its size and leaks no checkout;
//   - every request resolves to a typed error (ErrInternal, ErrOverloaded,
//     ErrCanceled, ErrClosed) or to a result byte-identical to the
//     per-input reference — a success carrying another request's output
//     (cross-request contamination) fails the run;
//   - the service still serves correctly once the faults stop.
//
// The default run keeps seeds and iteration counts small enough for
// `go test ./...`; NIMBLE_CHAOS_LONG=1 (the `make chaos` target) widens
// both.
func TestChaosService(t *testing.T) {
	seeds := []uint64{1, 7, 42}
	iters := 60
	if os.Getenv("NIMBLE_CHAOS_LONG") != "" {
		seeds = []uint64{1, 2, 3, 5, 7, 11, 42, 1337}
		iters = 400
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaos(t, seed, iters)
		})
	}
}

func runChaos(t *testing.T, seed uint64, iters int) {
	const clients = 16
	mcfg := models.MLPConfig{In: 12, Hidden: 24, Out: 6, Layers: 2, Seed: 21}

	// Per-client distinct inputs with per-input reference outputs from a
	// clean, identically-seeded program: the contamination oracle.
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
		out, err := ref.Invoke(context.Background(), "main", TensorValue(inputs[i]))
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = out.Tensor()
	}
	ref.Close()

	// The served program gets the faulty kernel table: injection must
	// happen in the window between Compile and Serve (adoption
	// freezes the executable).
	faulty, err := Compile(models.NewMLP(mcfg).Module)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(faults.Config{
		Seed:             seed,
		PanicPer1024:     40, // ~4% of kernel dispatches die
		AllocFailPer1024: 20, // ~2% simulate OOM
		SlowPer1024:      60, // ~6% stall 2ms
		CancelPer1024:    128,
	})
	if err := inj.WrapExecutable(faulty.exe); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	svc, err := faulty.Serve(WithWorkers(workers), WithMaxQueue(8),
		WithRequestTimeout(2*time.Second), WithBreaker(20, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var ok, internal, overloaded, canceled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := TensorValue(inputs[g])
			for i := 0; i < iters; i++ {
				ctx := context.Background()
				cancelFn := context.CancelFunc(func() {})
				if after, doCancel := inj.CancelRequest(3 * time.Millisecond); doCancel {
					ctx, cancelFn = context.WithTimeout(ctx, after)
				}
				out, err := svc.Invoke(ctx, "main", in)
				cancelFn()
				switch {
				case err == nil:
					got, isTensor := out.Tensor()
					if !isTensor || got == nil {
						t.Errorf("client %d: success without a tensor result", g)
						return
					}
					if !got.AllClose(want[g], 1e-5, 1e-6) {
						t.Errorf("client %d iter %d: output differs from this input's reference — cross-request contamination", g, i)
						return
					}
					ok.Add(1)
				case errors.Is(err, ErrInternal):
					internal.Add(1)
				case errors.Is(err, ErrOverloaded):
					overloaded.Add(1)
				case errors.Is(err, ErrCanceled):
					canceled.Add(1)
				case errors.Is(err, ErrClosed):
					// Tolerated only during shutdown; nothing closes the
					// service mid-run, so this is a failure here.
					t.Errorf("client %d: ErrClosed while service open", g)
					return
				default:
					t.Errorf("client %d: untyped error escaped the fault layer: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := svc.Stats()
	if st.Pool.Workers != workers {
		t.Errorf("pool size drifted: %d, want %d", st.Pool.Workers, workers)
	}
	if st.Pool.InFlight != 0 {
		t.Errorf("leaked session checkouts: InFlight = %d", st.Pool.InFlight)
	}
	if ok.Load() == 0 {
		t.Error("no request ever succeeded — fault rates drowned the signal")
	}
	injected := inj.Stats()
	if injected.Panics+injected.AllocFails > 0 && internal.Load() == 0 && st.Pool.Quarantined == 0 {
		t.Error("panics were injected but none surfaced as ErrInternal or quarantine")
	}

	// The faults only fire on their schedule; after the storm the service
	// must still serve every input correctly (fresh VMs, no residue). Retry
	// through any tail-end injected faults.
	for g := 0; g < clients; g++ {
		var lastErr error
		for attempt := 0; attempt < 50; attempt++ {
			out, err := svc.Invoke(context.Background(), "main", TensorValue(inputs[g]))
			if err != nil {
				lastErr = err
				continue
			}
			got, _ := out.Tensor()
			if got == nil || !got.AllClose(want[g], 1e-5, 1e-6) {
				t.Fatalf("post-chaos output for input %d wrong", g)
			}
			lastErr = nil
			break
		}
		if lastErr != nil {
			t.Fatalf("service unusable after chaos (input %d): %v", g, lastErr)
		}
	}
	t.Logf("seed %d: ok=%d internal=%d overloaded=%d canceled=%d quarantined=%d injected=%+v",
		seed, ok.Load(), internal.Load(), overloaded.Load(), canceled.Load(), st.Pool.Quarantined, injected)
}

// TestChaosSchedulerStreams drives the fault injector through the
// continuous-batching scheduler: concurrent decode streams share sessions
// at iteration granularity, so an injected panic in one stream's step
// poisons a VM that other streams are mid-generation on. The invariants
// extend the invoke-path chaos run to interleaved decode:
//
//   - every stream resolves to a typed error or to the full reference
//     sequence for its own start token;
//   - tokens delivered before a mid-stream fault are a strict prefix of
//     that stream's reference — a foreign token means the scheduler leaked
//     state between co-resident streams;
//   - the pool conserves its size, and the service decodes correctly after
//     the storm.
func TestChaosSchedulerStreams(t *testing.T) {
	seeds := []uint64{3, 17}
	iters := 8
	if os.Getenv("NIMBLE_CHAOS_LONG") != "" {
		seeds = []uint64{3, 5, 17, 23, 99}
		iters = 40
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			streamChaosRun(t, seed, iters)
		})
	}
}

func streamChaosRun(t *testing.T, seed uint64, iters int) {
	const clients = 8
	// A shrunk decoder: a full-size decode dispatches thousands of kernels,
	// so even a 0.4% panic rate kills virtually every stream. Eight steps of
	// a one-layer model keeps the per-stream dispatch count low enough that
	// both outcomes — clean finishes and mid-flight poisonings — occur.
	dcfg := models.DecoderConfig{Vocab: 64, Dim: 16, Layers: 1, Heads: 2, FFN: 32, MaxNew: 8, Seed: 42, Temp: 0.8}

	// Per-client reference sequences from a clean program: greedy decode is
	// deterministic, so any delivered token either matches the reference at
	// its position or proves contamination.
	clean, err := Compile(models.NewDecoder(dcfg).Module)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int64, clients)
	ref := clean.NewSession()
	for i := range want {
		out, err := ref.Invoke(context.Background(), "generate", TensorValue(models.StartToken(int64(i+1))))
		if err != nil {
			t.Fatal(err)
		}
		wt, _ := out.Tensor()
		want[i] = append([]int64(nil), wt.I64()...)
	}
	ref.Close()

	faulty, err := Compile(models.NewDecoder(dcfg).Module)
	if err != nil {
		t.Fatal(err)
	}
	// A panic does not just kill its own stream: it poisons the session, so
	// up to Window-1 batch-mates die with it. Rate and window are tuned
	// together so both clean finishes and poisonings occur every run.
	inj := faults.NewInjector(faults.Config{
		Seed:          seed,
		PanicPer1024:  1,
		SlowPer1024:   8,
		CancelPer1024: 96,
	})
	if err := inj.WrapExecutable(faulty.exe); err != nil {
		t.Fatal(err)
	}
	const workers = 2
	svc, err := faulty.Serve(
		WithWorkers(workers),
		WithSchedulerWindow(2), // bound the poison blast radius
		WithRequestTimeout(5*time.Second),
		WithBreaker(1000, 10*time.Millisecond), // keep the gate out of the way; poison is the subject
	)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start := TensorValue(models.StartToken(int64(g + 1)))
			for i := 0; i < iters; i++ {
				ctx := context.Background()
				cancelFn := context.CancelFunc(func() {})
				if after, doCancel := inj.CancelRequest(2 * time.Millisecond); doCancel {
					ctx, cancelFn = context.WithTimeout(ctx, after)
				}
				st, err := svc.InvokeStream(ctx, "generate", start)
				if err != nil {
					cancelFn()
					if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrCanceled) {
						t.Errorf("client %d: untyped open error: %v", g, err)
						return
					}
					failed.Add(1)
					continue
				}
				var got []int64
				for st.Next() {
					tt, _ := st.Value().Tensor()
					got = append(got, tt.I64()...)
				}
				err = st.Close()
				cancelFn()
				if len(got) > len(want[g]) {
					t.Errorf("client %d iter %d: %d tokens delivered, reference has %d", g, i, len(got), len(want[g]))
					return
				}
				if fmt.Sprint(got) != fmt.Sprint(want[g][:len(got)]) {
					t.Errorf("client %d iter %d: delivered tokens are not a prefix of this stream's reference — cross-stream contamination\n  got %v\n  ref %v", g, i, got, want[g][:len(got)])
					return
				}
				switch {
				case err == nil:
					if len(got) != len(want[g]) {
						t.Errorf("client %d iter %d: clean finish with %d of %d tokens", g, i, len(got), len(want[g]))
						return
					}
					ok.Add(1)
				case errors.Is(err, ErrInternal), errors.Is(err, ErrOverloaded), errors.Is(err, ErrCanceled):
					failed.Add(1)
				default:
					t.Errorf("client %d: untyped stream error escaped: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := svc.Stats()
	if st.Pool.Workers != workers {
		t.Errorf("pool size drifted: %d, want %d", st.Pool.Workers, workers)
	}
	if st.Pool.InFlight != 0 {
		t.Errorf("leaked session checkouts: InFlight = %d", st.Pool.InFlight)
	}
	if ok.Load() == 0 {
		t.Error("no stream ever completed — fault rates drowned the signal")
	}

	// After the storm: still decodes every reference exactly, through the
	// same scheduler path. Retry across tail-end faults.
	for g := 0; g < clients; g++ {
		var lastErr error
		for attempt := 0; attempt < 50; attempt++ {
			out, err := svc.Invoke(context.Background(), "generate", TensorValue(models.StartToken(int64(g+1))))
			if err != nil {
				lastErr = err
				continue
			}
			gt, _ := out.Tensor()
			if fmt.Sprint(gt.I64()) != fmt.Sprint(want[g]) {
				t.Fatalf("post-chaos decode for start %d wrong", g+1)
			}
			lastErr = nil
			break
		}
		if lastErr != nil {
			t.Fatalf("service unusable after stream chaos (start %d): %v", g+1, lastErr)
		}
	}
	t.Logf("seed %d: ok=%d failed=%d quarantined=%d injected=%+v",
		seed, ok.Load(), failed.Load(), st.Pool.Quarantined, inj.Stats())
}

// TestChaosBreakerDegradesHealth: a sustained panic storm trips the
// breaker, Health flips to degraded, and after the cooldown with faults
// off the service recovers to healthy.
func TestChaosBreakerDegradesHealth(t *testing.T) {
	mcfg := models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 9}
	p, err := Compile(models.NewMLP(mcfg).Module)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(faults.Config{Seed: 99, PanicPer1024: 1024}) // every kernel call dies
	if err := inj.WrapExecutable(p.exe); err != nil {
		t.Fatal(err)
	}
	svc, err := p.Serve(WithWorkers(1), WithMaxBatch(1), WithBreaker(3, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	m := models.NewMLP(mcfg)
	in := TensorValue(m.RandomBatch(rand.New(rand.NewSource(1)), 2))
	var sawOverload bool
	for i := 0; i < 20; i++ {
		_, err := svc.Invoke(context.Background(), "main", in)
		if errors.Is(err, ErrOverloaded) {
			sawOverload = true
			break
		}
		if !errors.Is(err, ErrInternal) {
			t.Fatalf("invoke %d: %v, want ErrInternal until the breaker opens", i, err)
		}
	}
	if !sawOverload {
		t.Fatal("breaker never opened under a 100% panic storm")
	}
	h := svc.Health()
	if !h.Degraded {
		t.Fatal("Health not degraded while breaker open")
	}
	var found bool
	for _, e := range h.Entries {
		if e.Entry == "main" && !e.Healthy {
			found = true
		}
	}
	if !found {
		t.Errorf("degraded entry not reported: %+v", h.Entries)
	}

	// RetryAfter hint is usable.
	_, err = svc.Invoke(context.Background(), "main", in)
	if errors.Is(err, ErrOverloaded) {
		if d, ok := RetryAfter(err); !ok || d <= 0 {
			t.Errorf("RetryAfter(%v) = %v, %v; want a positive hint", err, d, ok)
		}
	}

	// The injector cannot be disarmed (rate is 1024/1024), but health must
	// self-report accurately over time: after the cooldown the breaker
	// half-opens and Healthy flips back until the next failure.
	time.Sleep(30 * time.Millisecond)
	if deg := svc.Health().Degraded; deg {
		t.Error("breaker still reports open after cooldown (half-open should read healthy)")
	}
}
