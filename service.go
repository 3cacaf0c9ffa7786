package nimble

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"nimble/internal/serve"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// PoolStats re-exports the scheduler's session counters.
type PoolStats = serve.Stats

// BatcherStats re-exports a row-separable entry's coalescing counters.
type BatcherStats = serve.BatchStats

// GateStats re-exports the per-entry admission-control counters.
type GateStats = serve.GateStats

// SchedulerStats re-exports the per-entry run-queue counters: queue depth,
// batch occupancy, step latency EWMA and p50/p99.
type SchedulerStats = serve.SchedStats

// ServiceStats snapshots a service's session, coalescing, admission, and
// scheduler counters.
type ServiceStats struct {
	Pool       PoolStats        `json:"pool"`
	Batchers   []BatcherStats   `json:"batchers,omitempty"`
	Gates      []GateStats      `json:"gates,omitempty"`
	Schedulers []SchedulerStats `json:"schedulers,omitempty"`
}

// EntryHealth reports one entry's fault state.
type EntryHealth struct {
	Entry string `json:"entry"`
	// Healthy is false while the entry's circuit breaker is open.
	Healthy bool `json:"healthy"`
}

// Health is the service-level health summary: Degraded when any entry's
// circuit breaker is open. /healthz serves it.
type Health struct {
	Degraded bool          `json:"degraded"`
	Entries  []EntryHealth `json:"entries"`
}

// Service executes one Program for concurrent callers. Every request takes
// the same path: validation, then its entry's admission gate — a bounded
// queue with deadline-aware load shedding and a consecutive-failure circuit
// breaker, so overload produces fast typed ErrOverloaded rejections instead
// of unbounded queueing — then the scheduler's run queue, then one of the
// scheduler's VM sessions over the frozen executable.
//
// The scheduler is the only dispatcher. A request is a run advanced one
// step at a time: a unary invoke retires in its first step; a decode
// stream does not pin a session for its whole generate loop — each loop
// iteration is a schedulable step, and one session interleaves steps from
// up to WithSchedulerWindow streams, admitting new arrivals mid-flight and
// retiring finished ones without draining the rest. Single-tensor requests
// to entries the compiler proved row-separable are coalesced as they are
// popped: whatever compatible company is queued rides the same dispatch.
// WithPriority selects the request's lane and deadlines order the queue,
// for every kind of request.
//
// A VM or kernel panic is isolated to its session: the callers running on
// it get ErrInternal and the poisoned session is quarantined (replaced by a
// fresh VM), never reused. All methods are safe for concurrent use.
type Service struct {
	p        *Program
	sched    *serve.Scheduler
	gates    map[string]*serve.Gate
	timeout  time.Duration
	closed   atomic.Bool
	inflight atomic.Int64
}

// Serve builds a concurrent serving runtime over the program. With no
// options the defaults serve well: GOMAXPROCS sessions, an 8-stream
// scheduler window, bounded admission queues, coalescing of up to 16
// requests for row-separable entries, and per-entry circuit breakers. See
// ServiceOption for the knobs.
func (p *Program) Serve(opts ...ServiceOption) (*Service, error) {
	var cfg serviceConfig
	for _, o := range opts {
		o(&cfg)
	}
	if p.unlinked {
		return nil, fmt.Errorf("nimble: program was loaded without a kernel library; pass the compiled Program to Load")
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Service{p: p, gates: map[string]*serve.Gate{}, timeout: cfg.requestTimeout}
	sched := serve.SchedConfig{Window: cfg.schedWindow, Lanes: cfg.lanes, MaxBatch: cfg.maxBatch}
	for _, name := range p.names {
		s.gates[name] = serve.NewGate(serve.GateConfig{
			Entry:            name,
			Workers:          workers,
			MaxQueue:         cfg.maxQueue,
			BreakerThreshold: cfg.breakerThreshold,
			BreakerCooldown:  cfg.breakerCooldown,
		})
		sched.Entries = append(sched.Entries, serve.SchedEntry{Name: name, RowSeparable: p.entries[name].RowSeparable})
	}
	var err error
	if s.sched, err = serve.NewScheduler(p.exe, workers, cfg.sharedStorage, sched); err != nil {
		return nil, err
	}
	return s, nil
}

// Program returns the served program (for introspection endpoints).
func (s *Service) Program() *Program { return s.p }

// Workers returns the number of sessions the scheduler drives.
func (s *Service) Workers() int { return s.sched.Workers() }

// foldInvokeOptions applies the per-request options once: routing and
// admission both read the result.
func foldInvokeOptions(opts []InvokeOption) invokeConfig {
	var ic invokeConfig
	for _, o := range opts {
		o(&ic)
	}
	return ic
}

// withDeadline tightens ctx by the request's deadline budget or, failing a
// caller deadline, by the service's request timeout; the returned cancel is
// a no-op when nothing changed.
func (s *Service) withDeadline(ctx context.Context, budget time.Duration) (context.Context, context.CancelFunc) {
	if budget > 0 {
		// WithTimeout never loosens: an earlier parent deadline still wins.
		return context.WithTimeout(ctx, budget)
	}
	if _, has := ctx.Deadline(); !has && s.timeout > 0 {
		return context.WithTimeout(ctx, s.timeout)
	}
	return ctx, func() {}
}

// admission is one admitted request: its run in the scheduler, and what
// finishing it must undo. It is a Service stream's source; its Wait
// finishes it with the run's outcome.
type admission struct {
	svc     *Service
	run     *serve.Run
	start   time.Time
	release func(time.Duration, error)
	cancel  context.CancelFunc
}

// finish gives back the admission slot, the in-flight count and the
// deadline timer. It must be called exactly once, with the outcome.
func (a *admission) finish(err error) {
	a.release(time.Since(a.start), err)
	a.svc.inflight.Add(-1)
	a.cancel()
}

func (a *admission) Next() (*tensor.Tensor, bool) { return a.run.Next() }

func (a *admission) Wait() (vm.Object, error) {
	out, err := a.run.Wait()
	a.finish(err)
	return out, err
}

// invoke is the tail of every unary request: wait, then convert.
func (a *admission) invoke() (Value, error) {
	out, err := a.Wait()
	if err != nil {
		return Value{}, canceled(err)
	}
	return fromObject(out)
}

// admit is the front half of every request: validation (ErrBadInput
// without touching a session), argument lowering, per-request options, the
// entry's admission gate (ErrOverloaded with a Retry-After hint when the
// queue is full, the deadline is unmeetable, or the circuit breaker is
// open), and the submit to the scheduler's run queue; stream keeps the
// run's emissions for Next. An admitted request counts as in flight, so
// Shutdown drains it, until its finish is called. This count is the only
// one a request holds, Registry requests included; a closed service or
// scheduler refuses with ErrClosed.
func (s *Service) admit(ctx context.Context, entry string, args []Value, ic invokeConfig, stream bool) (*admission, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("nimble: service: %w", ErrClosed)
	}
	objs, err := s.p.validate(entry, args)
	if err != nil {
		return nil, err
	}
	a := &admission{svc: s}
	ctx, a.cancel = s.withDeadline(ctx, ic.budget)
	release, err := s.gates[entry].Admit(ctx)
	if err != nil {
		a.cancel()
		return nil, err
	}
	a.release, a.start = release, time.Now()
	s.inflight.Add(1)
	// The closed flag is re-checked inside the in-flight window so a request
	// racing Shutdown either drains or rejects, never hangs.
	if s.closed.Load() {
		err = fmt.Errorf("nimble: service: %w", ErrClosed)
	} else {
		a.run, err = s.sched.Submit(ctx, ic.lane, stream, entry, objs...)
	}
	if err != nil {
		a.finish(err)
		return nil, err
	}
	return a, nil
}

// Invoke runs the named entry function. The request passes validation
// (ErrBadInput without consuming a session) and the entry's admission gate
// (ErrOverloaded with a Retry-After hint), then waits in the scheduler's
// run queue for a session; a single-tensor request to a row-separable
// entry shares its dispatch with whatever compatible requests are queued
// beside it. Waits are abandoned when ctx is canceled: the error wraps
// ErrCanceled and ctx.Err(). A panic during execution surfaces as
// ErrInternal and quarantines the session it poisoned.
func (s *Service) Invoke(ctx context.Context, entry string, args ...Value) (Value, error) {
	return s.InvokeOpts(ctx, entry, args)
}

// InvokeOpts is Invoke with per-request options: WithPriority selects the
// lane the request queues in, WithDeadlineBudget tightens its deadline from
// arrival.
func (s *Service) InvokeOpts(ctx context.Context, entry string, args []Value, opts ...InvokeOption) (Value, error) {
	a, err := s.admit(ctx, entry, args, foldInvokeOptions(opts), false)
	if err != nil {
		return Value{}, err
	}
	return a.invoke()
}

// InvokeStream runs the named entry like Invoke but returns a Stream over
// the values the program emits through stream.emit while it runs. The open
// is synchronous and carries Invoke's full admission semantics: validation
// (ErrBadInput), the entry's gate (ErrOverloaded with a Retry-After hint)
// and the submit to the run queue (ErrClosed once the service is shutting
// down) all happen before InvokeStream returns, so a server can map an
// open failure to a proper HTTP status before it commits to a streaming
// response. The stream owns no session; its decode loop is stepped one
// iteration at a time, interleaved with other streams on whichever session
// adopts it.
//
// The admission slot and the in-flight count are held for the stream's
// whole life and released when the run finishes or the stream is closed;
// Shutdown therefore drains open streams exactly like in-flight Invokes.
// RequestTimeout, when configured, bounds the entire stream, first token
// to last.
func (s *Service) InvokeStream(ctx context.Context, entry string, args ...Value) (*Stream, error) {
	return s.InvokeStreamOpts(ctx, entry, args)
}

// InvokeStreamOpts is InvokeStream with per-request options: WithPriority
// selects the scheduler lane, WithDeadlineBudget tightens the deadline the
// scheduler orders by.
func (s *Service) InvokeStreamOpts(ctx context.Context, entry string, args []Value, opts ...InvokeOption) (*Stream, error) {
	a, err := s.admit(ctx, entry, args, foldInvokeOptions(opts), true)
	if err != nil {
		return nil, err
	}
	return &Stream{src: a}, nil
}

// Stats snapshots the service counters.
func (s *Service) Stats() ServiceStats {
	st := ServiceStats{Pool: s.sched.SessionStats()}
	st.Schedulers, st.Batchers = s.sched.Stats()
	for _, name := range s.p.names {
		st.Gates = append(st.Gates, s.gates[name].Stats())
	}
	return st
}

// Health reports the circuit-breaker state per entry: Degraded is true
// while any breaker is open (that entry's recent requests kept dying in
// the VM). Serving layers expose it on /healthz so load balancers stop
// routing to a degraded replica before it pages anyone.
func (s *Service) Health() Health {
	h := Health{}
	for _, name := range s.p.names {
		ok := s.gates[name].Healthy()
		if !ok {
			h.Degraded = true
		}
		h.Entries = append(h.Entries, EntryHealth{Entry: name, Healthy: ok})
	}
	return h
}

// Shutdown closes the service gracefully: new Invokes fail immediately
// with ErrClosed and admitted requests — queued, running, or streaming —
// get until ctx is done to finish. When the context fires first the
// scheduler closes out from under the stragglers — requests still
// queued fail with ErrClosed, active decode loops are retired at their next
// iteration boundary — and Shutdown reports how many were cut loose. A nil
// error means every admitted request drained.
func (s *Service) Shutdown(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	// Wait for in-flight requests; poll — shutdown is not a hot path.
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	cut := false
	for !cut && s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			cut = true
		case <-tick.C:
		}
	}
	stragglers := s.inflight.Load()
	s.sched.Close()
	if cut && stragglers > 0 {
		return fmt.Errorf("nimble: service: drain window expired with %d requests in flight: %w", stragglers, ErrClosed)
	}
	return nil
}

// Close shuts the service down with a bounded default drain (5s): accepted
// and in-flight requests get that long to finish, stragglers are rejected
// with ErrClosed instead of hanging. Use Shutdown to choose the bound.
// Idempotent.
func (s *Service) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}
