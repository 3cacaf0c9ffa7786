package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nimble/internal/kernels"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// SchedEntry describes one entry function the scheduler serves.
type SchedEntry struct {
	Name string
	// RowSeparable marks an entry that is row-independent along its leading
	// dimension (an MLP/classifier head over [batch, features], not a BERT
	// sequence whose positions attend to each other). Only such entries are
	// coalesced: concatenating requests along dim 0 and slicing the result
	// back apart is a semantics-preserving rewrite only when rows do not
	// interact. passes.RowSeparable decides this from the IR; the public
	// nimble.Service wires it automatically.
	RowSeparable bool
}

// SchedConfig parameterizes a Scheduler.
type SchedConfig struct {
	// Entries lists the entry functions served, in stats order.
	Entries []SchedEntry
	// Window caps how many multi-step runs (decode streams) one session
	// interleaves at once — the iteration-level batch size (default 8).
	Window int
	// Lanes is the number of priority lanes (default 1). Lane 0 is served
	// first; FIFO within a lane, earliest-deadline first among deadlined
	// requests of the same lane.
	Lanes int
	// MaxBatch bounds how many single-tensor requests to a row-separable
	// entry one dispatch may coalesce (default 16); 1 turns coalescing off.
	MaxBatch int
}

func (c SchedConfig) withDefaults() SchedConfig {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.Lanes <= 0 {
		c.Lanes = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	return c
}

// Scheduler is the serving stack's one dispatcher and the one owner of its
// sessions: every admitted request — unary, coalescible row, or decode
// stream — waits in its run queue, and each of its workers holds one
// session, taken off the free stack when the worker starts and pushed back
// when it goes idle. The stack is LIFO: under light load a few hot
// sessions serve everything and their storage pools and frame recyclers
// stay cache-resident; cold sessions are only touched when concurrency
// actually demands them.
//
// It is the iteration-level continuous-batching architecture production
// LLM systems converged on, applied to the paper's VM: a request is a run
// (vm.StreamRun) advanced one step at a time, where a step ends at the
// next compiled backward-Goto with the loop-carried state (the KV-cache)
// parked in planner-owned buffers. A loop-free entry finishes in its first
// step, so a unary invoke is simply a run that retires at once; a decode
// stream parks, and its worker round-robins steps across up to Window
// parked runs, adopting arrivals at iteration boundaries and retiring
// finished runs without draining their batch-mates.
//
// The queue is ordered by (lane, deadline, arrival). Micro-batching is the
// pop policy, not a second queue: a worker that pops a single-tensor
// request to a row-separable entry also takes every queued request it can
// be concatenated with pad-free, up to MaxBatch. Nothing waits on a timer —
// an idle session dispatches a lone arrival at once, and when every
// session is busy the queue itself is where company accumulates.
//
// All methods are safe for concurrent use.
type Scheduler struct {
	exe *vm.Executable
	// shared is the cross-VM storage tier every session (including the
	// fresh VMs minted by quarantine) attaches to; nil means each session
	// keeps a purely private storage pool.
	shared  *vm.SharedStoragePool
	cfg     SchedConfig
	entries map[string]*schedEntry
	order   []*schedEntry

	mu      sync.Mutex
	queue   []*Run
	workers map[*schedWorker]struct{}
	// all lists every session by id; free is the LIFO stack of the
	// sessions no worker holds.
	all  []*Session
	free []*Session
	// stats keeps the session counters; SessionStats fills in the
	// instantaneous fields.
	stats Stats
	// starting counts workers spawned for an idle session that have not
	// taken their first look at the queue yet. Each has one session of
	// free reserved, so len(free) >= starting always holds.
	starting int
	nextSeq  uint64
	closed   bool
}

// schedEntry is one entry's state, all under Scheduler.mu. The counters
// are kept in the snapshot structs themselves; Stats fills in the
// instantaneous and derived fields.
type schedEntry struct {
	// coalesce is set for row-separable entries when MaxBatch allows company.
	coalesce bool
	sched    SchedStats
	batch    BatchStats
	stepEWMA time.Duration
	stepHist histogram
}

// NewScheduler freezes exe and builds the workers sessions the scheduler
// drives over it. The executable must be fully constructed (compiled, or
// deserialized and linked) first; Freeze makes any later mutation a panic
// instead of a data race. A non-nil shared tier is attached to every
// session — including the fresh VMs quarantine mints over poisoned ones —
// so local storage misses draw from the common stock and local overflow
// migrates there instead of dying. Passing one tier to the schedulers of
// several executables is the point: a multi-model server's resident buffer
// memory then tracks the concurrent working set, not the model count. No
// goroutine starts until work arrives.
func NewScheduler(exe *vm.Executable, workers int, shared *vm.SharedStoragePool, cfg SchedConfig) (*Scheduler, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("serve: scheduler needs at least 1 worker, got %d", workers)
	}
	if len(exe.KernelNames) > 0 {
		// Surface unlinked kernels at construction, not first request.
		if _, err := exe.Kernel(0); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	exe.Freeze()
	cfg = cfg.withDefaults()
	sc := &Scheduler{exe: exe, shared: shared, cfg: cfg, entries: map[string]*schedEntry{}, workers: map[*schedWorker]struct{}{}}
	for _, e := range cfg.Entries {
		se := &schedEntry{coalesce: e.RowSeparable && cfg.MaxBatch > 1}
		se.sched.Entry, se.batch.Entry, se.batch.MaxBatch = e.Name, e.Name, cfg.MaxBatch
		sc.entries[e.Name] = se
		sc.order = append(sc.order, se)
	}
	for i := range workers {
		sc.all = append(sc.all, sc.newSession(i))
	}
	sc.free = slices.Clone(sc.all)
	sc.stats.Workers = workers
	return sc, nil
}

// newSession mints session i's VM with the scheduler's storage
// configuration applied; construction and quarantine share it so a fresh
// VM can never silently lose the shared-tier attachment.
func (sc *Scheduler) newSession(i int) *Session {
	m := vm.New(sc.exe)
	if sc.shared != nil {
		m.AttachSharedPool(sc.shared)
	}
	m.MarkPooled()
	return &Session{machine: m, id: i}
}

// Workers returns the number of sessions the scheduler drives.
func (sc *Scheduler) Workers() int { return len(sc.all) }

// Run is one request's life in the scheduler: queued, then adopted by a
// worker that steps it to completion, one iteration at a time, interleaved
// with its batch-mates. Its caller reads it in place: Next takes each
// emitted tensor straight from the stepping worker, and Wait takes the
// outcome. A unary request is a run whose emissions are dropped (tokens is
// nil); it normally retires in its first step.
//
// Next and Wait belong to the one goroutine that submitted the run.
type Run struct {
	sc       *Scheduler
	ctx      context.Context
	entry    *schedEntry
	args     []vm.Object
	lane     int
	deadline time.Time // zero = none
	seq      uint64
	// queued is when the stream was submitted, stamped only if every
	// session was busy then; zero once a worker takes it.
	queued time.Time

	// row is the request's input when it may share a dispatch: a unary call
	// with one rank>=1 tensor to a coalescing entry. Nil otherwise.
	row *tensor.Tensor

	// tokens hands each emitted tensor from the stepping worker to Next.
	// Capacity 1: the worker only steps a stream whose previous token has
	// been taken (pending false), so the send never blocks for
	// one-emit-per-iteration programs, and a multi-emit iteration falls
	// back to a context-bounded blocking send.
	tokens chan *tensor.Tensor
	// pending is set (before the send) when a token sits unread and
	// cleared by Next after receiving it; the worker skips pending
	// streams so one slow reader cannot head-of-line-block the batch. The
	// channel's length cannot stand in: a send to a reader already
	// waiting in Next hands the token over with the buffer still empty.
	pending atomic.Bool
	// abandoned, once set, makes the worker retire the run at its next
	// boundary: Wait gave up on an unfinished stream.
	abandoned atomic.Bool

	run   *vm.StreamRun // nil until the worker's first step
	steps int

	// done closes at retirement; result/err are valid after.
	done   chan struct{}
	result vm.Object
	err    error
}

// coalesces reports whether q can ride s's dispatch with zero padding:
// same entry, same dtype, same rank, same trailing extents. Shapes that
// differ only in the leading dimension concatenate as they are; anything
// else stays a separate dispatch — the paper's dynamic workloads never pay
// padding waste.
func (s *Run) coalesces(q *Run) bool {
	a, b := s.row, q.row
	return b != nil && q.entry == s.entry && a.DType() == b.DType() &&
		slices.Equal(a.Shape()[1:], b.Shape()[1:])
}

// Submit puts one request on the run queue and returns its handle. With
// stream set, its emissions are kept for Next; without, they are dropped,
// and a single-tensor call to a row-separable entry may be coalesced with
// its neighbours in the queue. The lane and the deadline, if ctx carries
// one, order the queue. Backpressure is per run: an unread token parks
// only its own run at the next iteration boundary while batch-mates keep
// stepping.
func (sc *Scheduler) Submit(ctx context.Context, lane int, stream bool, entry string, args ...vm.Object) (*Run, error) {
	e := sc.entries[entry]
	if e == nil {
		return nil, fmt.Errorf("serve: scheduler: unknown entry %q", entry)
	}
	if err := ctx.Err(); err != nil {
		return nil, Canceled(err)
	}
	s := &Run{
		sc:    sc,
		ctx:   ctx,
		entry: e,
		args:  args,
		lane:  min(max(lane, 0), sc.cfg.Lanes-1),
		done:  make(chan struct{}),
	}
	if stream {
		s.tokens = make(chan *tensor.Tensor, 1)
	} else if e.coalesce && len(args) == 1 {
		if t, ok := args[0].(*vm.TensorObj); ok && t.T != nil && t.T.Rank() >= 1 {
			s.row = t.T
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		s.deadline = dl
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return nil, fmt.Errorf("serve: scheduler: %w", ErrClosed)
	}
	s.seq = sc.nextSeq
	sc.nextSeq++
	sc.queue = append(sc.queue, s)
	e.sched.Submitted++
	// A free session no starting worker has reserved is an idle one: start
	// a worker on it rather than let the arrival wait for a busy one. Only
	// an arrival that does wait reads the clock. Always wake, so a sleeping
	// worker with spare window adopts at its next boundary.
	if len(sc.free) > sc.starting {
		sc.spawnLocked()
	} else {
		sc.stats.Waits++
		s.queued = time.Now()
	}
	sc.wakeAllLocked()
	return s, nil
}

// Next returns the next tensor a stream run emits, blocking until the
// worker emits one. It returns false once the run has retired and every
// token was read, or when the run's context ends first; Wait then gives
// the outcome.
//
// vet:no-ctx — bounded by the run's own context, given to Submit.
func (s *Run) Next() (*tensor.Tensor, bool) {
	select {
	case t := <-s.tokens:
		s.pending.Store(false)
		s.sc.mu.Lock()
		s.sc.wakeAllLocked()
		s.sc.mu.Unlock()
		return t, true
	case <-s.done:
		// The final step may emit and return at once.
		select {
		case t := <-s.tokens:
			return t, true
		default:
			return nil, false
		}
	case <-s.ctx.Done():
		return nil, false
	}
}

// Wait returns the run's outcome. A unary run is waited for until it
// finishes or its context ends. A stream run is read by then: if it has
// not finished, its reader is done with it, so Wait retires it. A run no
// worker has adopted yet is withdrawn from the queue at once; otherwise
// the worker retires it at its next iteration boundary, and Wait discards
// the tokens nobody read until it has.
//
// vet:no-ctx — the worker observes the run's cancellation or abandonment
// within one step.
func (s *Run) Wait() (vm.Object, error) {
	select {
	case <-s.done:
		return s.result, s.err
	default:
	}
	if s.tokens == nil {
		select {
		case <-s.done:
			return s.result, s.err
		case <-s.ctx.Done():
		}
	}
	s.abandoned.Store(true)
	sc := s.sc
	sc.mu.Lock()
	if i := slices.Index(sc.queue, s); i >= 0 {
		sc.queue = slices.Delete(sc.queue, i, i+1)
		s.entry.sched.Canceled++
		if s.row != nil {
			s.entry.batch.Canceled++
		}
		s.err = Canceled(s.ctx.Err())
		close(s.done)
	}
	sc.wakeAllLocked()
	sc.mu.Unlock()
	for {
		select {
		case <-s.tokens:
		case <-s.done:
			return s.result, s.err
		}
	}
}

// popLocked removes and returns the best queued stream: lowest lane, then
// earliest deadline (deadline-less last), then arrival order. Linear scan;
// the queue is admission-bounded upstream.
func (sc *Scheduler) popLocked() *Run { return sc.popLikeLocked(nil) }

// popLikeLocked is popLocked restricted to the streams that can share
// like's dispatch (every stream when like is nil).
func (sc *Scheduler) popLikeLocked(like *Run) *Run {
	best := -1
	for i, q := range sc.queue {
		if like != nil && !like.coalesces(q) {
			continue
		}
		if best < 0 || streamLess(q, sc.queue[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	s := sc.queue[best]
	sc.queue = slices.Delete(sc.queue, best, best+1)
	if !s.queued.IsZero() {
		sc.stats.WaitTime += time.Since(s.queued)
		s.queued = time.Time{}
	}
	return s
}

func streamLess(a, b *Run) bool {
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	if !a.deadline.Equal(b.deadline) {
		if a.deadline.IsZero() {
			return false
		}
		if b.deadline.IsZero() {
			return true
		}
		return a.deadline.Before(b.deadline)
	}
	return a.seq < b.seq
}

// spawnLocked starts a worker and reserves it a free session; the caller
// checked that len(free) > starting. The worker pops the session at its
// first look at the queue, so a worker that finds nothing to do frees it
// again in the same critical section and is never seen holding it.
func (sc *Scheduler) spawnLocked() {
	w := &schedWorker{sc: sc, wake: make(chan struct{}, 1)}
	w.active, w.settled = w.buf[:0:2], w.buf[2:2]
	sc.workers[w] = struct{}{}
	sc.starting++
	go w.run()
}

// vet:no-ctx — each wake is a non-blocking send into a single-slot buffer.
func (sc *Scheduler) wakeAllLocked() {
	for w := range sc.workers {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// noteStep records one iteration's latency and how many requests shared it.
func (sc *Scheduler) noteStep(e *schedEntry, d time.Duration, occupancy int) {
	sc.mu.Lock()
	e.sched.Steps++
	e.stepHist.observe(d)
	if e.stepEWMA == 0 {
		e.stepEWMA = d
	} else {
		e.stepEWMA += (d - e.stepEWMA) / 8
	}
	occ := float64(occupancy)
	if e.sched.OccupancyEWMA == 0 {
		e.sched.OccupancyEWMA = occ
	} else {
		e.sched.OccupancyEWMA += (occ - e.sched.OccupancyEWMA) / 8
	}
	sc.mu.Unlock()
}

// Close fails queued runs with ErrClosed and tells workers to retire
// their active ones at the next iteration boundary. Callers observe the
// retirement through their runs' done channels; Close does not wait for
// them.
func (sc *Scheduler) Close() {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return
	}
	sc.closed = true
	q := sc.queue
	sc.queue = nil
	for _, s := range q {
		s.entry.sched.Failed++
	}
	sc.wakeAllLocked()
	sc.mu.Unlock()
	for _, s := range q {
		s.err = fmt.Errorf("serve: scheduler: %w", ErrClosed)
		close(s.done)
	}
}

// SchedStats is a snapshot of one entry's run-queue counters.
type SchedStats struct {
	Entry     string `json:"entry"`
	Submitted int64  `json:"submitted"`
	Completed int64  `json:"completed"`
	Canceled  int64  `json:"canceled"`
	Failed    int64  `json:"failed"`
	// Queued/Active are instantaneous: this entry's waiting requests and
	// those adopted by workers. Sessions counts the sessions the scheduler
	// drives right now, across all entries.
	Queued   int `json:"queued"`
	Active   int `json:"active"`
	Sessions int `json:"sessions"`
	// PeakOccupancy is the most runs one session ever interleaved;
	// OccupancyEWMA smooths how many requests shared a step.
	PeakOccupancy int     `json:"peak_occupancy"`
	OccupancyEWMA float64 `json:"occupancy_ewma"`
	// Steps counts loop iterations executed; StepsPerStream smooths how
	// many a completed run needed.
	Steps          int64   `json:"steps"`
	StepsPerStream float64 `json:"steps_per_stream"`
	StepEWMAUS     float64 `json:"step_ewma_us"`
	StepP50US      float64 `json:"step_p50_us"`
	StepP99US      float64 `json:"step_p99_us"`
}

// BatchStats is a snapshot of one row-separable entry's coalescing counters.
type BatchStats struct {
	Entry        string `json:"entry"`
	MaxBatch     int    `json:"max_batch"`
	Batches      int64  `json:"batches"`
	Singles      int64  `json:"singles"`
	Coalesced    int64  `json:"coalesced_requests"`
	Fallbacks    int64  `json:"fallback_requests"`
	Canceled     int64  `json:"canceled_requests"`
	LargestBatch int    `json:"largest_batch"`
}

// SessionStats snapshots the session counters.
func (sc *Scheduler) SessionStats() Stats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	st := sc.stats
	st.InFlight = len(sc.all) - len(sc.free)
	st.PerSession = make([]int64, len(sc.all))
	for i, s := range sc.all {
		st.PerSession[i] = s.invocations.Load()
	}
	return st
}

// Stats snapshots every entry's run-queue counters, in config order, and
// the coalescing counters of the entries that coalesce.
func (sc *Scheduler) Stats() (sched []SchedStats, batch []BatchStats) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	queued := map[*schedEntry]int{}
	for _, s := range sc.queue {
		queued[s.entry]++
	}
	for _, e := range sc.order {
		st := e.sched
		st.Queued, st.Sessions = queued[e], len(sc.workers)
		st.StepEWMAUS = float64(e.stepEWMA.Microseconds())
		st.StepP50US = float64(e.stepHist.quantile(0.50).Microseconds())
		st.StepP99US = float64(e.stepHist.quantile(0.99).Microseconds())
		sched = append(sched, st)
		if e.coalesce {
			batch = append(batch, e.batch)
		}
	}
	return sched, batch
}

// schedWorker drives one session: each pass it adopts the next unit of
// queued work, then advances every run it holds by one step.
type schedWorker struct {
	sc   *Scheduler
	sess *Session
	wake chan struct{}
	// active holds the runs parked on this session between steps, plus the
	// one adopted this pass until its first step shows whether it parks.
	active []*Run
	// settled holds retired runs whose callers have not been told yet.
	settled []*Run
	// buf backs both slices until one outgrows it: a worker started for a
	// lone unary request then costs one allocation, not three.
	buf [4]*Run
}

func (w *schedWorker) run() {
	sc := w.sc
	starting, yielded := true, false
	for {
		sc.mu.Lock()
		if starting {
			n := len(sc.free) - 1
			w.sess = sc.free[n]
			sc.free[n] = nil
			sc.free = sc.free[:n]
			sc.starting--
			sc.stats.PeakInUse = max(sc.stats.PeakInUse, len(sc.all)-n)
		}
		fresh := w.adoptLocked()
		if starting && len(sc.queue) > 0 {
			// Busy workers held back for this one; what it left is theirs.
			sc.wakeAllLocked()
		}
		starting = false
		idle := len(w.active) == 0
		if idle {
			// Nothing held and nothing queued: retire this worker and free
			// its session. Check, deregistration and push are atomic under
			// sc.mu, so a racing submit either queued before the check or
			// finds the session free and spawns afresh.
			delete(sc.workers, w)
			sc.free = append(sc.free, w.sess)
		}
		closed := sc.closed
		sc.mu.Unlock()
		if idle {
			w.notify()
			return
		}
		w.notify()

		progressed := false
		if fresh != nil && fresh.row != nil {
			// No timer sizes the dispatch: the worker yields the processor
			// once, so arrivals that are already runnable reach the queue
			// first. On an idle machine the yield returns at once; on a
			// saturated one it is what lets company accumulate at all, since
			// the workers would otherwise hold every processor while the
			// requests they could share a dispatch with wait to be queued.
			runtime.Gosched()
			sc.mu.Lock()
			group := w.coalesceLocked(fresh)
			sc.mu.Unlock()
			if group != nil {
				w.runBatch(group)
				progressed = true
				if len(w.active) > 0 && !w.sess.poisoned {
					w.notify()
				}
			}
		}
		kept := w.active[:0]
		for i, s := range w.active {
			if w.sess.poisoned {
				// Not visited this pass; keep them all so the poison path
				// below retires every survivor — dropping one would strand
				// its caller in Wait forever.
				kept = append(kept, w.active[i:]...)
				break
			}
			switch {
			case closed:
				w.retire(s, nil, fmt.Errorf("serve: scheduler: %w", ErrClosed), true)
			case s.abandoned.Load() || s.ctx.Err() != nil:
				w.retire(s, nil, Canceled(s.ctx.Err()), true)
			case s.pending.Load():
				// Last token not consumed yet: stepping would force the
				// emit into a blocking send and stall the batch.
				kept = append(kept, s)
				continue
			default:
				if done, out, err := w.advance(s, len(w.active)); done {
					w.retire(s, out, err, false)
				} else {
					kept = append(kept, s)
				}
			}
			progressed = true
			if len(kept)+len(w.active)-i-1 > 0 && !w.sess.poisoned {
				// The session stays busy with other runs either way.
				w.notify()
			}
		}
		clear(w.active[len(kept):])
		w.active = kept

		if w.sess.poisoned {
			// The panic corrupted the whole VM — every co-resident run's
			// parked frames live in its storage pool — so they are lost
			// with it. The session is quarantined: the poisoned VM is left
			// to the GC and a fresh one over the same frozen executable
			// takes its place, so the session count is conserved and no
			// state the faulting request touched can resurface. A successor
			// worker picks up the queue.
			coErr := fmt.Errorf("serve: scheduler: session poisoned by a batch-mate's fault: %w", ErrInternal)
			for _, s := range w.active {
				w.retire(s, nil, coErr, false)
			}
			fresh := sc.newSession(w.sess.id)
			fresh.invocations.Store(w.sess.invocations.Load())
			sc.mu.Lock()
			sc.all[fresh.id] = fresh
			sc.stats.Quarantined++
			delete(sc.workers, w)
			sc.free = append(sc.free, fresh)
			if len(sc.queue) > 0 && !sc.closed {
				sc.spawnLocked()
			}
			sc.mu.Unlock()
			w.notify()
			return
		}

		switch {
		case progressed:
			yielded = false
		case !yielded:
			// Every active stream is waiting on its reader. Yield once
			// before sleeping, so the readers the last pass woke take their
			// tokens and the next pass steps their streams together. A
			// worker that slept at once would be woken by one reader and
			// handed that reader's processor, and the two would pass it
			// back and forth while the other readers wait.
			yielded = true
			runtime.Gosched()
		default:
			// Sleep until a reader takes a token, a cancellation arrives,
			// or a submit lands. vet:no-ctx — every path that changes the
			// condition above sends a wake.
			yielded = false
			<-w.wake
		}
	}
}

// adoptLocked takes the next run off the queue into the active set, to be
// stepped this pass, and returns it; nil when there is none to take.
//
// The scheduler stays work-conserving: a worker that already holds parked
// runs leaves an arrival to the worker starting up on an idle session for
// it, so no request shares a session while another session sits unused.
func (w *schedWorker) adoptLocked() *Run {
	sc := w.sc
	if len(w.active) >= sc.cfg.Window || (len(w.active) > 0 && len(sc.queue) <= sc.starting) {
		return nil
	}
	s := sc.popLocked()
	if s == nil {
		return nil
	}
	s.entry.sched.Active++
	w.active = append(w.active, s)
	s.entry.sched.PeakOccupancy = max(s.entry.sched.PeakOccupancy, len(w.active))
	return s
}

// coalesceLocked is the micro-batching pop policy: s, a coalescible row
// request this worker just adopted, brings every queued request that can
// share its dispatch, best first up to MaxBatch. With company, s leaves the
// active set and the group comes back for runBatch; alone, s stays put.
func (w *schedWorker) coalesceLocked(s *Run) []*Run {
	sc, e := w.sc, s.entry
	var group []*Run
	for len(group) < sc.cfg.MaxBatch {
		m := sc.popLikeLocked(s)
		if m == nil {
			break
		}
		if group == nil {
			group = append(make([]*Run, 0, sc.cfg.MaxBatch), s)
		}
		group = append(group, m)
	}
	if group == nil {
		e.batch.Singles++
		return nil
	}
	e.sched.Active += len(group) - 1
	w.active = w.active[:len(w.active)-1]
	return group
}

// advance runs s for one iteration on the worker's session; done reports
// that the run finished, with its outcome.
func (w *schedWorker) advance(s *Run, occupancy int) (done bool, out vm.Object, err error) {
	start := time.Now()
	done, err = w.sess.step(s)
	w.sc.noteStep(s.entry, time.Since(start), occupancy)
	s.steps++
	if done && err == nil {
		out, _ = s.run.Result()
	}
	return done, out, err
}

// runBatch serves a coalesced group with one VM run: the inputs
// concatenated along dim 0, the result sliced back apart per request. The
// merged run detaches from every member's context — one request's
// cancellation must not fail its batch-mates. If it fails — an error, a
// panic, or an entry that turns out not to map rows to rows for these
// inputs — the members go back in the queue to run alone, which preserves
// semantics and confines a bad request's fault to itself. After a panic
// that happens on other sessions: this one is poisoned.
func (w *schedWorker) runBatch(group []*Run) {
	sc, e := w.sc, group[0].entry
	ins := make([]*tensor.Tensor, len(group))
	rows := 0
	for i, s := range group {
		ins[i] = s.row
		rows += s.row.Shape()[0]
	}
	merged := &Run{ctx: context.Background(), entry: e, args: []vm.Object{vm.NewTensorObj(kernels.ConcatInto(ins, nil, 0))}}
	var out vm.Object
	var err error
	for done := false; !done; {
		done, out, err = w.advance(merged, len(group))
	}
	if to, ok := out.(*vm.TensorObj); ok && err == nil && to.T.Rank() >= 1 && to.T.Shape()[0] == rows {
		sc.mu.Lock()
		e.batch.Batches++
		e.batch.Coalesced += int64(len(group))
		e.batch.LargestBatch = max(e.batch.LargestBatch, len(group))
		sc.mu.Unlock()
		lo := 0
		for _, s := range group {
			hi := lo + s.row.Shape()[0]
			w.retire(s, vm.NewTensorObj(kernels.SliceInto(to.T, nil, 0, lo, hi)), nil, false)
			lo = hi
		}
		return
	}
	sc.mu.Lock()
	e.batch.Fallbacks += int64(len(group))
	closed := sc.closed
	if !closed {
		for _, s := range group {
			s.row = nil // alone from here on
		}
		e.sched.Active -= len(group)
		sc.queue = append(sc.queue, group...)
		sc.wakeAllLocked()
	}
	sc.mu.Unlock()
	if closed {
		for _, s := range group {
			w.retire(s, nil, fmt.Errorf("serve: scheduler: %w", ErrClosed), false)
		}
	}
}

// vmSink builds the VM-level emit sink for one stream: a non-blocking send
// into the stream's single-slot buffer (pending is set first, so the
// worker's skip check can never miss a token), falling back to a
// context-bounded blocking send for multi-emit iterations.
func vmSink(s *Run) func(*tensor.Tensor) error {
	return func(t *tensor.Tensor) error {
		s.pending.Store(true)
		select {
		case s.tokens <- t:
			return nil
		default:
		}
		select {
		case s.tokens <- t:
			return nil
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
}

// retire seals a stream's outcome; notify tells its caller. abortRun
// releases a parked run's buffers (cancellation paths); a poisoned session
// skips that — its pool is garbage wholesale and the VM is about to be
// quarantined.
func (w *schedWorker) retire(s *Run, out vm.Object, err error, abortRun bool) {
	if abortRun && s.run != nil && !w.sess.poisoned {
		s.run.Abort()
	}
	s.result, s.err = out, err
	w.settled = append(w.settled, s)
	sc := w.sc
	sc.mu.Lock()
	sc.stats.Invocations++
	e := &s.entry.sched
	e.Active--
	switch {
	case err == nil:
		e.Completed++
		if s.steps > 0 {
			fs := float64(s.steps)
			if e.StepsPerStream == 0 {
				e.StepsPerStream = fs
			} else {
				e.StepsPerStream += (fs - e.StepsPerStream) / 8
			}
		}
	case errors.Is(err, ErrCanceled):
		// Client-initiated cancellations are not execution failures;
		// counting them would let request deadlines inflate the error rate.
		e.Canceled++
	default:
		e.Failed++
		sc.stats.Errors++
	}
	sc.mu.Unlock()
}

// notify closes the done channels of the runs retired since the last call.
// The worker calls it once it has either freed its session or taken on
// more work, so a caller that sees its request finish — and then reads the
// in-flight session count — never catches a session the scheduler was
// just about to free.
func (w *schedWorker) notify() {
	for _, s := range w.settled {
		close(s.done)
	}
	clear(w.settled)
	w.settled = w.settled[:0]
}
