package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"nimble/internal/compiler"
	"nimble/internal/models"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

func startObj(id int64) vm.Object { return vm.NewTensorObj(models.StartToken(id)) }

func compileDecoder(t testing.TB) *compiler.Result {
	t.Helper()
	res, err := compiler.Compile(models.NewDecoder(models.DefaultDecoderConfig()).Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// submitWait submits one request and reads it to the end, handing each
// emitted token to sink (a nil sink makes it a unary request); a sink error
// stops the reading and Wait retires the run.
func submitWait(sc *Scheduler, ctx context.Context, lane int, sink func(*tensor.Tensor) error, entry string, args ...vm.Object) (vm.Object, error) {
	r, err := sc.Submit(ctx, lane, sink != nil, entry, args...)
	if err != nil {
		return nil, err
	}
	for sink != nil {
		t, ok := r.Next()
		if !ok || sink(t) != nil {
			break
		}
	}
	return r.Wait()
}

// pinnedDecode produces the reference token sequence for one start token on
// a dedicated, freshly compiled VM — the pre-scheduler semantics every
// scheduled stream must reproduce byte for byte.
func pinnedDecode(t testing.TB, entry string, start int64) []int64 {
	t.Helper()
	m, _, err := compiler.CompileToVM(models.NewDecoder(models.DefaultDecoderConfig()).Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var toks []int64
	_, err = m.InvokeStreamContext(context.Background(), func(tt *tensor.Tensor) error {
		toks = append(toks, tt.I64()...)
		return nil
	}, entry, startObj(start))
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

// newGenerateScheduler builds a scheduler serving the decoder's one entry
// on one session: any concurrency is interleaving.
func newGenerateScheduler(t *testing.T, res *compiler.Result, cfg SchedConfig) *Scheduler {
	t.Helper()
	cfg.Entries = []SchedEntry{{Name: "generate"}}
	sc, err := NewScheduler(res.Exe, 1, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// generateStats is the run-queue snapshot of a single-entry scheduler.
func generateStats(sc *Scheduler) SchedStats {
	st, _ := sc.Stats()
	return st[0]
}

func TestSchedulerInterleavesStreamsOnOneSession(t *testing.T) {
	res := compileDecoder(t)
	sc := newGenerateScheduler(t, res, SchedConfig{Window: 8})

	const streams = 8
	want := make([][]int64, streams)
	for i := range want {
		want[i] = pinnedDecode(t, "generate", int64(i+1))
	}

	// Each stream's sink blocks at a barrier after its first token, so the
	// decode is too fast to matter: all eight must be resident on the one
	// session before any of them may proceed past token one.
	var barrier sync.WaitGroup
	barrier.Add(streams)
	got := make([][]int64, streams)
	errs := make([]error, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			first := true
			_, errs[i] = submitWait(sc, context.Background(), 0, func(tt *tensor.Tensor) error {
				if first {
					first = false
					barrier.Done()
					barrier.Wait()
				}
				got[i] = append(got[i], tt.I64()...)
				return nil
			}, "generate", startObj(int64(i+1)))
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Errorf("stream %d tokens diverge from pinned-session decode:\n  scheduled %v\n  pinned    %v", i, got[i], want[i])
		}
	}
	st := generateStats(sc)
	if st.Completed != streams {
		t.Errorf("Completed = %d, want %d", st.Completed, streams)
	}
	// The acceptance bar: with one session and eight simultaneous arrivals,
	// the window must actually interleave ≥ 4 decode loops mid-flight.
	if st.PeakOccupancy < 4 {
		t.Errorf("peak occupancy = %d, want >= 4 concurrent streams on the one session", st.PeakOccupancy)
	}
	if st.Sessions != 0 || st.Active != 0 || st.Queued != 0 {
		t.Errorf("scheduler did not quiesce: %+v", st)
	}
	if ps := sc.SessionStats(); ps.InFlight != 0 {
		t.Errorf("session leaked: %+v", ps)
	}
}

// TestSchedulerMidFlightJoin forces a join after the first stream is
// already generating: the late stream's output must still be identical.
func TestSchedulerMidFlightJoin(t *testing.T) {
	res := compileDecoder(t)
	sc := newGenerateScheduler(t, res, SchedConfig{Window: 4})

	firstToken := make(chan struct{})
	var earlyToks, lateToks []int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		once := sync.Once{}
		if _, err := submitWait(sc, context.Background(), 0, func(tt *tensor.Tensor) error {
			once.Do(func() { close(firstToken) })
			earlyToks = append(earlyToks, tt.I64()...)
			return nil
		}, "generate", startObj(5)); err != nil {
			t.Error(err)
		}
	}()
	<-firstToken // the early stream is mid-generation
	if _, err := submitWait(sc, context.Background(), 0, func(tt *tensor.Tensor) error {
		lateToks = append(lateToks, tt.I64()...)
		return nil
	}, "generate", startObj(11)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if want := pinnedDecode(t, "generate", 5); fmt.Sprint(earlyToks) != fmt.Sprint(want) {
		t.Errorf("early stream diverged after a mid-flight join: got %v want %v", earlyToks, want)
	}
	if want := pinnedDecode(t, "generate", 11); fmt.Sprint(lateToks) != fmt.Sprint(want) {
		t.Errorf("late-joining stream diverged: got %v want %v", lateToks, want)
	}
}

// TestSchedulerQueueOrdering is the deadline-ordering property test: for
// random mixes of lanes, deadlines, and arrival orders, popLocked must
// always yield (lane asc, deadline asc with deadline-less last, seq asc).
func TestSchedulerQueueOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := time.Now()
	for trial := 0; trial < 200; trial++ {
		sc := &Scheduler{cfg: SchedConfig{Lanes: 3, Window: 8}}
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			s := &Run{lane: rng.Intn(3), seq: uint64(i)}
			if rng.Intn(2) == 0 {
				s.deadline = base.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
			}
			sc.queue = append(sc.queue, s)
		}
		var popped []*Run
		for {
			s := sc.popLocked()
			if s == nil {
				break
			}
			popped = append(popped, s)
		}
		if len(popped) != n {
			t.Fatalf("trial %d: popped %d of %d", trial, len(popped), n)
		}
		ok := sort.SliceIsSorted(popped, func(i, j int) bool { return streamLess(popped[i], popped[j]) })
		for i := 1; i < len(popped); i++ {
			if streamLess(popped[i], popped[i-1]) {
				ok = false
			}
		}
		if !ok {
			t.Fatalf("trial %d: pop order violates (lane, deadline, arrival)", trial)
		}
	}
}

// TestSchedulerPriorityOvertake: with one session and a window of 1, a
// lane-0 arrival queued behind lane-1 work must run before it.
func TestSchedulerPriorityOvertake(t *testing.T) {
	res := compileDecoder(t)
	sc := newGenerateScheduler(t, res, SchedConfig{Window: 1, Lanes: 2})

	var mu sync.Mutex
	var order []string
	note := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	running := make(chan struct{})
	release := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		first := true
		if _, err := submitWait(sc, context.Background(), 0, func(*tensor.Tensor) error {
			if first {
				first = false
				note("running")
				close(running)
				<-release // hold the window hostage until both rivals are queued
			}
			return nil
		}, "generate", startObj(1)); err != nil {
			t.Error(err)
		}
	}()
	<-running
	// Two more while the window (of 1) is occupied: background lands in the
	// queue first, then urgent. Urgent (lane 0) must overtake.
	launch := func(name string, lane int, start int64) {
		defer wg.Done()
		first := true
		if _, err := submitWait(sc, context.Background(), lane, func(*tensor.Tensor) error {
			if first {
				first = false
				note(name)
			}
			return nil
		}, "generate", startObj(start)); err != nil {
			t.Error(err)
		}
	}
	wg.Add(1)
	go launch("background", 1, 2)
	awaitQueued(t, sc, 1)
	wg.Add(1)
	go launch("urgent", 0, 3)
	awaitQueued(t, sc, 2)
	close(release)
	wg.Wait()
	if len(order) != 3 || order[1] != "urgent" {
		t.Errorf("first-token order %v; lane-0 arrival should overtake lane-1", order)
	}

	// The same holds for coalesced rows: with the single session held,
	// three lane-1 requests (1, 2 and 4 rows) and then a lane-0 request (8
	// rows) queue on a row-separable entry. Two fit a dispatch, so the
	// first must carry the lane-0 request and the oldest lane-1 one.
	t.Run("rows", func(t *testing.T) {
		m, res := compileMLP(t)
		var dispatched []int            // leading dim of each dispatch's input
		first := res.Exe.KernelNames[1] // [0] is its shape function
		err := res.Exe.WrapKernels(func(name string, fn vm.PackedFunc) vm.PackedFunc {
			if name != first {
				return fn
			}
			return func(args []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) {
				dispatched = append(dispatched, args[0].Shape()[0])
				return fn(args, out)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewScheduler(res.Exe, 1, nil, SchedConfig{Entries: []SchedEntry{{Name: "main", RowSeparable: true}}, Lanes: 2, MaxBatch: 2})
		if err != nil {
			t.Fatal(err)
		}
		release := holdSessions(sc)
		rng := rand.New(rand.NewSource(23))
		var wg sync.WaitGroup
		for i, req := range []struct{ lane, rows int }{{1, 1}, {1, 2}, {1, 4}, {0, 8}} {
			in := vm.NewTensorObj(m.RandomBatch(rng, req.rows))
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := submitWait(sc, context.Background(), req.lane, nil, "main", in); err != nil {
					t.Error(err)
				}
			}()
			awaitQueued(t, sc, i+1)
		}
		release()
		wg.Wait()
		if len(dispatched) != 2 || dispatched[0] != 8+1 || dispatched[1] != 2+4 {
			t.Errorf("dispatches carried %v rows, want [9 6]: lane 0 first, then arrival order", dispatched)
		}
	})
}

// TestSchedulerCancelMidStream: canceling one stream retires it at the next
// iteration boundary without disturbing its batch-mates.
func TestSchedulerCancelMidStream(t *testing.T) {
	res := compileDecoder(t)
	sc := newGenerateScheduler(t, res, SchedConfig{Window: 4})

	ctx, cancel := context.WithCancel(context.Background())
	gotOne := make(chan struct{})
	var wg sync.WaitGroup
	var cancelErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		once := sync.Once{}
		_, cancelErr = submitWait(sc, ctx, 0, func(*tensor.Tensor) error {
			once.Do(func() { close(gotOne) })
			return nil
		}, "generate", startObj(9))
	}()
	<-gotOne
	cancel()

	// A healthy stream alongside must still produce the full exact output.
	var toks []int64
	if _, err := submitWait(sc, context.Background(), 0, func(tt *tensor.Tensor) error {
		toks = append(toks, tt.I64()...)
		return nil
	}, "generate", startObj(4)); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !errors.Is(cancelErr, ErrCanceled) {
		t.Errorf("canceled stream err = %v, want ErrCanceled", cancelErr)
	}
	if want := pinnedDecode(t, "generate", 4); fmt.Sprint(toks) != fmt.Sprint(want) {
		t.Errorf("surviving stream diverged after a batch-mate's cancel")
	}
	if st := generateStats(sc); st.Canceled == 0 {
		t.Errorf("cancel not counted: %+v", st)
	}
}
