package nimble

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"nimble/internal/serve"
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
// the same path: validation, then the scheduler's run queue, which admits
// it by its entry's policy — a bound on the entry's runs waiting there,
// deadline-aware load shedding and a consecutive-failure circuit breaker,
// so overload produces fast typed ErrOverloaded rejections instead of
// unbounded queueing — then one of the scheduler's VM sessions over the
// frozen executable. The scheduler owns the request from there on: its
// deadline, its in-flight state and the drain at Shutdown.
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
	p     *Program
	sched *serve.Scheduler
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
	s := &Service{p: p}
	sched := serve.SchedConfig{
		Window: cfg.schedWindow, Lanes: cfg.lanes, MaxBatch: cfg.maxBatch,
		MaxQueue: cfg.maxQueue, BreakerThreshold: cfg.breakerThreshold, BreakerCooldown: cfg.breakerCooldown,
		RequestTimeout: cfg.requestTimeout,
	}
	for _, name := range p.names {
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

// admit is the front half of every request: validation (ErrBadInput
// without touching a session), argument lowering, and the submit to the
// scheduler, which applies the deadline and admits or sheds the run;
// stream keeps the run's emissions for Next. A closing service refuses
// with ErrClosed ahead of any validation error: a Registry re-routes only
// on ErrClosed, and the version it re-routes to may accept the request.
func (s *Service) admit(ctx context.Context, entry string, args []Value, ic invokeConfig, stream bool) (*serve.Run, error) {
	objs, err := s.p.validate(entry, args)
	if err != nil {
		if s.sched.Closing() {
			return nil, fmt.Errorf("nimble: service: %w", ErrClosed)
		}
		return nil, err
	}
	return s.sched.Submit(ctx, ic.lane, ic.budget, stream, entry, objs...)
}

// await is the tail of every unary request: wait for the admitted run,
// then convert its result.
func await(run *serve.Run, err error) (Value, error) {
	if err != nil {
		return Value{}, err
	}
	out, err := run.Wait()
	if err != nil {
		return Value{}, canceled(err)
	}
	return fromObject(out)
}

// Invoke runs the named entry function. The request passes validation
// (ErrBadInput without consuming a session) and its entry's admission
// policy (ErrOverloaded with a Retry-After hint), then waits in the
// scheduler's run queue for a session; a single-tensor request to a
// row-separable entry shares its dispatch with whatever compatible
// requests are queued beside it. Waits are abandoned when ctx is canceled: the error wraps
// ErrCanceled and ctx.Err(). A panic during execution surfaces as
// ErrInternal and quarantines the session it poisoned.
func (s *Service) Invoke(ctx context.Context, entry string, args ...Value) (Value, error) {
	return s.InvokeOpts(ctx, entry, args)
}

// InvokeOpts is Invoke with per-request options: WithPriority selects the
// lane the request queues in, WithDeadlineBudget tightens its deadline from
// arrival.
func (s *Service) InvokeOpts(ctx context.Context, entry string, args []Value, opts ...InvokeOption) (Value, error) {
	return await(s.admit(ctx, entry, args, foldInvokeOptions(opts), false))
}

// InvokeStream runs the named entry like Invoke but returns a Stream over
// the values the program emits through stream.emit while it runs. The open
// is synchronous and carries Invoke's full admission semantics: validation
// (ErrBadInput) and the submit to the run queue (ErrOverloaded with a
// Retry-After hint when the entry sheds it, ErrClosed once the service is
// shutting down) both happen before InvokeStream returns, so a server can
// map an open failure to a proper HTTP status before it commits to a
// streaming response. The stream owns no session; its decode loop is
// stepped one iteration at a time, interleaved with other streams on
// whichever session adopts it.
//
// The stream is in flight while its run is queued or running on the
// scheduler, parked on an unread token included, and Shutdown drains it
// like an Invoke; an ended run holds nothing, even with its last token
// unread. Only while its run waits in the run queue does a stream count
// against the entry's queue bound.
// RequestTimeout, when configured, bounds the entire stream, first token
// to last.
func (s *Service) InvokeStream(ctx context.Context, entry string, args ...Value) (*Stream, error) {
	return s.InvokeStreamOpts(ctx, entry, args)
}

// InvokeStreamOpts is InvokeStream with per-request options: WithPriority
// selects the scheduler lane, WithDeadlineBudget tightens the deadline the
// scheduler orders by.
func (s *Service) InvokeStreamOpts(ctx context.Context, entry string, args []Value, opts ...InvokeOption) (*Stream, error) {
	run, err := s.admit(ctx, entry, args, foldInvokeOptions(opts), true)
	if err != nil {
		return nil, err
	}
	return &Stream{src: run}, nil
}

// Stats snapshots the service counters.
func (s *Service) Stats() ServiceStats {
	st := ServiceStats{Pool: s.sched.SessionStats()}
	st.Schedulers, st.Batchers, st.Gates = s.sched.Stats()
	return st
}

// Health reports the circuit-breaker state per entry: Degraded is true
// while any breaker is open (that entry's recent requests kept dying in
// the VM). Serving layers expose it on /healthz so load balancers stop
// routing to a degraded replica before it pages anyone.
func (s *Service) Health() Health {
	h := Health{}
	_, _, gates := s.sched.Stats()
	for _, g := range gates {
		h.Degraded = h.Degraded || g.BreakerOpen
		h.Entries = append(h.Entries, EntryHealth{Entry: g.Entry, Healthy: !g.BreakerOpen})
	}
	return h
}

// Shutdown closes the service gracefully: new Invokes fail immediately
// with ErrClosed and admitted requests — queued, running, or streaming —
// get until ctx is done to finish; the scheduler's drain wakes it when the
// last one ends. When the context fires first the scheduler closes out
// from under the stragglers — requests still queued fail with ErrClosed,
// active decode loops are retired at their next iteration boundary — and
// Shutdown reports how many were cut loose. A nil error means every
// admitted request drained; a second Shutdown returns nil.
func (s *Service) Shutdown(ctx context.Context) error { return s.sched.Shutdown(ctx) }

// Close shuts the service down with a bounded default drain (5s): accepted
// and in-flight requests get that long to finish, stragglers are rejected
// with ErrClosed instead of hanging. Use Shutdown to choose the bound.
// Idempotent.
func (s *Service) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}
