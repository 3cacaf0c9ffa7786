package nimble_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"nimble"
	"nimble/models"
)

func compileDecoder(t *testing.T) *nimble.Program {
	t.Helper()
	p, err := nimble.Compile(models.NewDecoder(models.DefaultDecoderConfig()).Module)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tokensOf flattens a decode result ([MaxNew] int64 tensor Value) to a slice.
func tokensOf(t *testing.T, v nimble.Value) []int64 {
	t.Helper()
	tt, ok := v.Tensor()
	if !ok {
		t.Fatalf("decode result is %v, want tensor", v.Kind())
	}
	return append([]int64(nil), tt.I64()...)
}

// TestSessionStreamMatchesInvoke is the tentpole acceptance check at the
// public layer: a streamed greedy decode delivers every token live, and the
// streamed sequence is identical to the same entry's non-streaming Invoke —
// for both the greedy and the temperature-sampled entry.
func TestSessionStreamMatchesInvoke(t *testing.T) {
	p := compileDecoder(t)
	for _, entry := range []string{"generate", "generate_sampled"} {
		t.Run(entry, func(t *testing.T) {
			ctx := context.Background()
			start := models.StartTokenValue(7)

			sess := p.NewSession()
			want, err := sess.Invoke(ctx, entry, start)
			if err != nil {
				t.Fatal(err)
			}
			wantToks := tokensOf(t, want)
			if len(wantToks) != models.DefaultDecoderConfig().MaxNew {
				t.Fatalf("invoke produced %d tokens, want %d", len(wantToks), models.DefaultDecoderConfig().MaxNew)
			}

			st, err := sess.InvokeStream(ctx, entry, start)
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			for st.Next() {
				got = append(got, tokensOf(t, st.Value())...)
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(wantToks) {
				t.Errorf("streamed tokens diverge from Invoke:\n  stream %v\n  invoke %v", got, wantToks)
			}
			res, err := st.Result()
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(tokensOf(t, res)) != fmt.Sprint(wantToks) {
				t.Errorf("stream Result diverges from Invoke")
			}
			if err := st.Close(); err != nil {
				t.Errorf("Close after drain: %v", err)
			}
		})
	}
}

// TestSessionStreamBusy pins the single-threaded discipline: while a stream
// is open the session refuses new work with ErrBusy, and recovers once the
// stream is drained.
func TestSessionStreamBusy(t *testing.T) {
	p := compileDecoder(t)
	sess := p.NewSession()
	ctx := context.Background()
	start := models.StartTokenValue(3)

	st, err := sess.InvokeStream(ctx, "generate", start)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Next() {
		t.Fatalf("stream produced no tokens: %v", st.Err())
	}
	if _, err := sess.Invoke(ctx, "generate", start); !errors.Is(err, nimble.ErrBusy) {
		t.Errorf("Invoke during open stream: got %v, want ErrBusy", err)
	}
	if _, err := sess.InvokeStream(ctx, "generate", start); !errors.Is(err, nimble.ErrBusy) {
		t.Errorf("InvokeStream during open stream: got %v, want ErrBusy", err)
	}
	if err := st.Close(); err != nil && !errors.Is(err, nimble.ErrCanceled) {
		t.Fatalf("Close: %v", err)
	}
	if _, err := sess.Invoke(ctx, "generate", start); err != nil {
		t.Errorf("Invoke after stream closed: %v", err)
	}
}

// TestStreamOpenErrors pins that streaming validation is synchronous: open
// failures come back as typed errors from InvokeStream itself, never from a
// half-open stream.
func TestStreamOpenErrors(t *testing.T) {
	p := compileDecoder(t)
	sess := p.NewSession()
	ctx := context.Background()
	if _, err := sess.InvokeStream(ctx, "nope", models.StartTokenValue(1)); !errors.Is(err, nimble.ErrUnknownEntry) {
		t.Errorf("unknown entry: got %v, want ErrUnknownEntry", err)
	}
	if _, err := sess.InvokeStream(ctx, "generate"); !errors.Is(err, nimble.ErrBadArity) {
		t.Errorf("bad arity: got %v, want ErrBadArity", err)
	}
	svc, err := p.Serve(nimble.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.InvokeStream(ctx, "nope", models.StartTokenValue(1)); !errors.Is(err, nimble.ErrUnknownEntry) {
		t.Errorf("service unknown entry: got %v, want ErrUnknownEntry", err)
	}
}

// TestServiceStreamConcurrent drives several concurrent streams through a
// two-session pool under the race detector: every stream's token sequence
// must match the reference Invoke, and when all streams finish the pool and
// admission accounting must be fully released (a later Invoke succeeds and
// Shutdown drains cleanly).
func TestServiceStreamConcurrent(t *testing.T) {
	p := compileDecoder(t)
	ctx := context.Background()
	want := map[int64][]int64{}
	ref := p.NewSession()
	for id := int64(0); id < 4; id++ {
		out, err := ref.Invoke(ctx, "generate", models.StartTokenValue(id))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = tokensOf(t, out)
	}

	svc, err := p.Serve(nimble.WithWorkers(2), nimble.WithMaxBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for worker := 0; worker < 8; worker++ {
		id := int64(worker % 4)
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := svc.InvokeStream(ctx, "generate", models.StartTokenValue(id))
			if err != nil {
				errs <- err
				return
			}
			var got []int64
			for st.Next() {
				tt, _ := st.Value().Tensor()
				got = append(got, tt.I64()...)
			}
			if err := st.Err(); err != nil {
				errs <- err
				return
			}
			if fmt.Sprint(got) != fmt.Sprint(want[id]) {
				errs <- fmt.Errorf("start %d: streamed %v, want %v", id, got, want[id])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := svc.Invoke(ctx, "generate", models.StartTokenValue(0)); err != nil {
		t.Errorf("Invoke after streams drained: %v", err)
	}
	if st := svc.Stats(); st.Pool.InFlight != 0 {
		t.Errorf("pool reports %d in flight after all streams finished", st.Pool.InFlight)
	}
	if err := svc.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown after streams drained: %v", err)
	}
}

// TestServiceStreamCloseReleases pins that abandoning a stream returns its
// session to the pool: with a single worker, a Close mid-stream must let the
// next request through instead of deadlocking on the checkout.
func TestServiceStreamCloseReleases(t *testing.T) {
	p := compileDecoder(t)
	svc, err := p.Serve(nimble.WithWorkers(1), nimble.WithMaxBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	st, err := svc.InvokeStream(ctx, "generate", models.StartTokenValue(5))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Next() {
		t.Fatalf("no first token: %v", st.Err())
	}
	if err := st.Close(); err != nil && !errors.Is(err, nimble.ErrCanceled) {
		t.Fatalf("Close mid-stream: %v", err)
	}
	if _, err := svc.Invoke(ctx, "generate", models.StartTokenValue(5)); err != nil {
		t.Fatalf("Invoke after mid-stream Close (session leaked?): %v", err)
	}
}

// TestServiceStreamWindowBound pins the bound docs/operations.md states for
// concurrent streams: workers × scheduler window, not the queue bound. On
// one worker with the default options, a window's worth of streams, each
// read to its first token, are all adopted into the session's window. None
// waits in the run queue, so none is shed, and the admission stats count
// the same zero waiting runs as the scheduler's.
func TestServiceStreamWindowBound(t *testing.T) {
	p := compileDecoder(t)
	svc, err := p.Serve(nimble.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const window = 8 // WithSchedulerWindow's default
	ctx := context.Background()
	for i := 0; i < window; i++ {
		st, err := svc.InvokeStream(ctx, "generate", models.StartTokenValue(int64(i)))
		if err != nil {
			t.Fatalf("stream %d of %d: %v", i+1, window, err)
		}
		defer st.Close()
		if !st.Next() {
			t.Fatalf("stream %d: no first token: %v", i+1, st.Err())
		}
	}
	stats := svc.Stats()
	for i, g := range stats.Gates {
		s := stats.Schedulers[i]
		if g.Entry != "generate" {
			continue
		}
		if g.ShedQueue != 0 || g.Queued != 0 || s.Queued != 0 {
			t.Errorf("%d open streams on one worker: gate %+v, scheduler %+v; want none shed or queued", window, g, s)
		}
		if s.Active != window {
			t.Errorf("Active = %d, want all %d streams in the session's window", s.Active, window)
		}
	}
}
