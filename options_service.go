package nimble

import (
	"time"

	"nimble/internal/vm"
)

// ServiceOption configures Program.Serve. The zero configuration (no
// options) is a sensible production default: GOMAXPROCS sessions,
// iteration-level stream scheduling with an 8-stream window, coalescing of
// queued requests to row-separable entries, bounded per-entry admission
// queues with deadline-aware shedding, and a consecutive-failure circuit
// breaker.
type ServiceOption func(*serviceConfig)

// serviceConfig is the resolved option set.
type serviceConfig struct {
	workers          int
	maxBatch         int
	maxQueue         int
	requestTimeout   time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	lanes            int
	schedWindow      int
	sharedStorage    *vm.SharedStoragePool
}

// withSharedStorage attaches every session to a cross-program storage
// tier. Set only by the Registry (no public option): sharing buffer memory
// across services is a property of co-hosting models, not of one service.
func withSharedStorage(sp *vm.SharedStoragePool) ServiceOption {
	return func(c *serviceConfig) { c.sharedStorage = sp }
}

// WithWorkers sets the session-pool size (default GOMAXPROCS).
func WithWorkers(n int) ServiceOption { return func(c *serviceConfig) { c.workers = n } }

// WithMaxQueue bounds how many of each entry's requests may wait in the
// scheduler's run queue; arrivals beyond it are shed with ErrOverloaded
// instead of queuing unboundedly (default 4×workers). Requests a session
// is running do not count: neither a stream adopted into a session's
// window (WithSchedulerWindow) nor a row riding a coalesced dispatch.
// Negative disables the bound.
func WithMaxQueue(n int) ServiceOption { return func(c *serviceConfig) { c.maxQueue = n } }

// WithRequestTimeout applies a per-request deadline inside Invoke and
// InvokeStream when the caller's context has none (default none). For a
// stream it bounds the whole run, first token to last.
func WithRequestTimeout(d time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.requestTimeout = d }
}

// WithBreaker tunes each entry's circuit breaker: threshold consecutive
// internal faults open it, cooldown is how long it sheds before probing
// again (defaults 8, 1s). A negative threshold disables the breaker.
func WithBreaker(threshold int, cooldown time.Duration) ServiceOption {
	return func(c *serviceConfig) {
		c.breakerThreshold = threshold
		c.breakerCooldown = cooldown
	}
}

// WithPriorityLanes sets how many priority lanes requests may select with
// WithPriority (default 1 — every request equal). Lane 0 is served first;
// requests asking for a lane past the last one are clamped into it.
func WithPriorityLanes(n int) ServiceOption { return func(c *serviceConfig) { c.lanes = n } }

// WithSchedulerWindow caps how many decode streams one session interleaves
// — the iteration-level batch size (default 8).
func WithSchedulerWindow(n int) ServiceOption { return func(c *serviceConfig) { c.schedWindow = n } }

// WithMaxBatch bounds how many queued single-tensor requests to a
// row-separable entry one dispatch coalesces (default 16; 1 turns
// coalescing off, so every request is dispatched on its own). There is no
// collection window to tune: a request never waits for company, it shares
// a dispatch with whatever compatible requests queued while every session
// was busy.
func WithMaxBatch(n int) ServiceOption { return func(c *serviceConfig) { c.maxBatch = n } }

// InvokeOption attaches per-request scheduling hints to Service.InvokeOpts
// and InvokeStreamOpts.
type InvokeOption func(*invokeConfig)

type invokeConfig struct {
	lane     int
	budget   time.Duration
	routeKey string
}

// WithPriority assigns the request to priority lane p (0 = most urgent,
// the default; higher lanes yield to lower ones under contention). Lanes
// past the service's WithPriorityLanes count clamp to the last lane.
func WithPriority(p int) InvokeOption { return func(c *invokeConfig) { c.lane = p } }

// WithDeadlineBudget gives the request d from its arrival to finish,
// tightening (never loosening) any deadline the context already carries.
// The request is shed up front when the expected wait already makes the
// budget unmeetable: the entry's requests waiting in the run queue,
// divided across the workers, plus one, times the smoothed service time
// (the time sessions spent running each recent request).
func WithDeadlineBudget(d time.Duration) InvokeOption {
	return func(c *invokeConfig) { c.budget = d }
}
