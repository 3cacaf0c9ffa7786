package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"nimble/internal/compiler"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// newRowScheduler builds a scheduler serving the MLP's row-separable
// "main".
func newRowScheduler(t *testing.T, res *compiler.Result, sessions, maxBatch int) *Scheduler {
	t.Helper()
	sc, err := NewScheduler(res.Exe, sessions, nil, SchedConfig{Entries: []SchedEntry{{Name: "main", RowSeparable: true}}, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// holdSessions takes every free session off the scheduler's stack, as busy
// workers would hold them, so submitted requests queue instead of running.
// The returned func frees them again and starts a worker on each while
// work is queued, as workers finishing their runs would adopt it.
func holdSessions(sc *Scheduler) (release func()) {
	sc.mu.Lock()
	held := sc.free
	sc.free = nil
	sc.mu.Unlock()
	return func() {
		sc.mu.Lock()
		sc.free = append(sc.free, held...)
		for i := 0; i < len(sc.queue) && len(sc.free) > sc.starting && !sc.closed; i++ {
			sc.spawnLocked()
		}
		sc.mu.Unlock()
	}
}

// awaitQueued waits until n requests sit in the scheduler's run queue.
func awaitQueued(t *testing.T, sc *Scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		queued := 0
		st, _ := sc.Stats()
		for _, e := range st {
			queued += e.Queued
		}
		if queued >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached depth %d (at %d)", n, queued)
		}
		time.Sleep(time.Millisecond)
	}
}

func rowStats(sc *Scheduler) BatchStats {
	_, b := sc.Stats()
	return b[0]
}

func rowRequest(sc *Scheduler, in *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := submitWait(sc, context.Background(), 0, nil, "main", vm.NewTensorObj(in))
	if err != nil {
		return nil, err
	}
	return out.(*vm.TensorObj).T, nil
}

func TestCoalescedMatchesPerRequest(t *testing.T) {
	m, res := compileMLP(t)
	sc := newRowScheduler(t, res, 2, 8)
	rng := rand.New(rand.NewSource(11))
	const n = 32
	inputs := make([]*tensor.Tensor, n)
	want := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = m.RandomBatch(rng, 1+i%3)
		var err error
		// One at a time, so each runs alone.
		want[i], err = rowRequest(sc, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	// Every session is busy while the requests arrive, so the queue is
	// where they meet — no timer involved.
	release := holdSessions(sc)
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := rowRequest(sc, inputs[i])
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if !out.Shape().Equal(want[i].Shape()) {
				t.Errorf("request %d: shape %v, want %v", i, out.Shape(), want[i].Shape())
				return
			}
			if !out.AllClose(want[i], 1e-5, 1e-6) {
				t.Errorf("request %d: batched output differs from per-request output", i)
			}
		}(i)
	}
	awaitQueued(t, sc, n)
	release()
	wg.Wait()
	st := rowStats(sc)
	if st.Coalesced == 0 {
		t.Errorf("no requests were coalesced under concurrent load: %+v", st)
	}
	if st.Fallbacks != 0 {
		t.Errorf("row-separable entry fell back %d times", st.Fallbacks)
	}
	if st.LargestBatch > 8 {
		t.Errorf("batch of %d exceeds MaxBatch", st.LargestBatch)
	}
}

// TestLoneRequestIsNotHeldForCompany: with a session idle, a single
// arrival is dispatched at once and alone — there is no collection window.
func TestLoneRequestIsNotHeldForCompany(t *testing.T) {
	m, res := compileMLP(t)
	sc := newRowScheduler(t, res, 2, 8)
	if _, err := rowRequest(sc, m.RandomBatch(rand.New(rand.NewSource(1)), 1)); err != nil {
		t.Fatal(err)
	}
	if st := rowStats(sc); st.Singles != 1 || st.Batches != 0 {
		t.Errorf("lone request: %+v, want one single dispatch", st)
	}
}

func TestRaggedInputsStayPadFree(t *testing.T) {
	// Requests whose trailing dims disagree must not be concatenated (that
	// would require padding); they form separate dispatches.
	e := &schedEntry{coalesce: true}
	sc := &Scheduler{cfg: SchedConfig{Window: 8, MaxBatch: 8}}
	reqs := []*Run{
		{row: tensor.New(tensor.Float32, 2, 16)},
		{row: tensor.New(tensor.Float32, 1, 16)},
		{row: tensor.New(tensor.Float32, 2, 8)},
		{row: tensor.New(tensor.Float32, 3, 16)},
		{row: tensor.New(tensor.Int64, 2, 16)},
	}
	for i, r := range reqs {
		r.entry, r.seq = e, uint64(i)
	}
	sc.queue = append(sc.queue, reqs...)
	w := &schedWorker{sc: sc}
	group := w.coalesceLocked(w.adoptLocked())
	if len(group) != 3 {
		t.Fatalf("f32 [·,16] group has %d members, want 3", len(group))
	}
	// Arrival order is preserved within a group.
	if group[0] != reqs[0] || group[1] != reqs[1] || group[2] != reqs[3] {
		t.Error("group does not preserve arrival order")
	}
	// The other two share a dispatch with nobody.
	for _, want := range []*Run{reqs[2], reqs[4]} {
		if s := w.adoptLocked(); s != want || w.coalesceLocked(s) != nil {
			t.Fatalf("ragged request %v was grouped", want.row.Shape())
		}
	}
	if len(sc.queue) != 0 {
		t.Errorf("%d requests left queued", len(sc.queue))
	}
}

func TestScalarIsNeverCoalesced(t *testing.T) {
	_, res := compileMLP(t)
	sc := newRowScheduler(t, res, 2, 4)
	if _, err := rowRequest(sc, tensor.Scalar(1)); err == nil {
		t.Error("scalar input accepted by a row entry")
	}
	if _, err := rowRequest(sc, nil); err == nil {
		t.Error("nil input accepted by a row entry")
	}
	if st := rowStats(sc); st.Singles+st.Coalesced != 0 {
		t.Errorf("rank-0 input entered the coalescing path: %+v", st)
	}
}

func TestStreamAfterCloseFails(t *testing.T) {
	m, res := compileMLP(t)
	sc := newRowScheduler(t, res, 2, 4)
	in := m.RandomBatch(rand.New(rand.NewSource(2)), 1)
	if _, err := rowRequest(sc, in); err != nil {
		t.Fatal(err)
	}
	sc.Close()
	if _, err := rowRequest(sc, in); !errors.Is(err, ErrClosed) {
		t.Errorf("request on closed scheduler = %v, want ErrClosed", err)
	}
}

func TestKernelPanicUnderBatchIsConfined(t *testing.T) {
	// A kernel panic under a coalesced dispatch costs one session — it is
	// quarantined, nothing more runs on it — and no request: the members
	// are re-run alone, so only a request that faults by itself fails.
	m, res := compileMLP(t)
	// The bomb goes off on any dispatch of three rows or more: the merged
	// one, but none of its one-row members.
	err := res.Exe.WrapKernels(func(name string, fn vm.PackedFunc) vm.PackedFunc {
		return func(args []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) {
			if args[0].Rank() == 2 && args[0].Shape()[0] >= 3 {
				panic("test bomb in kernel " + name)
			}
			return fn(args, out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := newRowScheduler(t, res, 1, 4)
	rng := rand.New(rand.NewSource(4))
	release := holdSessions(sc)
	const n = 3
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		in := m.RandomBatch(rng, 1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = rowRequest(sc, in)
		}(i)
	}
	awaitQueued(t, sc, n)
	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("batch-mate %d failed for the merged dispatch's fault: %v", i, err)
		}
	}
	if st := sc.SessionStats(); st.Quarantined != 1 || st.InFlight != 0 {
		t.Errorf("after one poisoned batch: %+v, want exactly one quarantine and no held session", st)
	}
	if st := rowStats(sc); st.Fallbacks != n || st.Coalesced != 0 {
		t.Errorf("poisoned batch: %+v, want all %d members re-run alone", st, n)
	}

	// A request with the wrong feature width passes the rank check but
	// violates the dense kernel's shape contract: an error, not a dead
	// process.
	if _, err := rowRequest(sc, tensor.New(tensor.Float32, 1, 7)); err == nil {
		t.Fatal("mis-shaped request did not error")
	}
	// The scheduler keeps serving afterwards.
	if _, err := rowRequest(sc, m.RandomBatch(rng, 2)); err != nil {
		t.Fatalf("scheduler wedged after panic: %v", err)
	}
	if st := sc.SessionStats(); st.InFlight != 0 {
		t.Errorf("session leaked after panic: %+v", st)
	}
}

func TestCloseAnswersAcceptedRequests(t *testing.T) {
	// A client blocked in Stream when Close lands still gets an answer —
	// its result if a worker had it, ErrClosed if it was still queued —
	// never a stranded channel read.
	m, res := compileMLP(t)
	sc := newRowScheduler(t, res, 1, 8)
	in := m.RandomBatch(rand.New(rand.NewSource(8)), 1)
	release := holdSessions(sc)
	defer release()
	const n = 6
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := rowRequest(sc, in)
			errs <- err
		}()
	}
	awaitQueued(t, sc, n)
	sc.Close()
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("accepted request got error after Close: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("request stranded by Close")
		}
	}
}
