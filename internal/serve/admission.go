package serve

import (
	"context"
	"errors"
	"sync"
	"time"
)

// GateConfig parameterizes one entry's admission controller.
type GateConfig struct {
	// Entry names the entry function the gate fronts (for error messages
	// and stats).
	Entry string
	// Workers is the number of sessions the entry shares; the expected-wait
	// estimate divides the backlog across it.
	Workers int
	// MaxQueue bounds how many admitted requests may be waiting (admitted
	// minus running) before arrivals are shed with ErrOverloaded
	// (default 4×Workers). Negative disables the bound.
	MaxQueue int
	// BreakerThreshold is how many consecutive internal failures
	// (ErrInternal — panics, not cancellations or bad input) open the
	// entry's circuit breaker (default 8). Negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds before allowing
	// traffic again (default 1s). The first post-cooldown failure re-opens
	// it immediately (half-open semantics); a success closes it fully.
	BreakerCooldown time.Duration
}

func (c GateConfig) withDefaults() GateConfig {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.Workers
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 8
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	return c
}

// Gate is one entry's admission controller: a bounded logical queue with
// deadline-aware load shedding and a consecutive-failure circuit breaker.
// It does not queue requests itself — the scheduler's run queue does — it
// decides, at arrival, whether a request should be allowed to queue at all:
//
//   - breaker open (too many consecutive internal faults): shed;
//   - logical queue (admitted − running capacity) at MaxQueue: shed;
//   - the request carries a deadline the backlog makes unmeetable
//     (expected wait, from an EWMA of observed service times, exceeds the
//     time remaining): shed on arrival instead of timing out after
//     occupying a queue slot.
//
// Shed requests fail fast with an *OverloadError carrying a Retry-After
// estimate, so clients back off instead of piling on. All methods are safe
// for concurrent use.
type Gate struct {
	cfg GateConfig

	mu       sync.Mutex
	admitted int           // requests admitted and not yet released
	ewma     time.Duration // service-time EWMA (0 until the first sample)

	consecFails int
	openUntil   time.Time // breaker open while now < openUntil
	halfOpen    bool      // cooldown expired; next outcome decides
	probing     bool      // half-open probe in flight; arrivals shed until it resolves

	// shed counters by cause, plus totals.
	admittedTotal int64
	shedQueue     int64
	shedDeadline  int64
	shedBreaker   int64
	breakerTrips  int64

	// lat distributes completed-request service times (cancellations
	// excluded, like the EWMA) for the P50/P99 stats.
	lat histogram
}

// NewGate builds a gate over the config.
func NewGate(cfg GateConfig) *Gate {
	return &Gate{cfg: cfg.withDefaults()}
}

// expectedWaitLocked estimates how long a request arriving now waits before
// a session frees up: the backlog ahead of it, divided across the workers,
// times the observed per-request service time. Zero until the first
// completed request seeds the EWMA.
func (g *Gate) expectedWaitLocked() time.Duration {
	if g.ewma <= 0 {
		return 0
	}
	backlog := g.admitted - g.cfg.Workers
	if backlog < 0 {
		backlog = 0
	}
	// +1: the arriving request itself still needs a full service slot
	// before its deadline — a request whose deadline cannot even cover its
	// own expected service time is unmeetable at any queue depth.
	waves := (backlog + g.cfg.Workers) / g.cfg.Workers
	return time.Duration(waves) * g.ewma
}

// Admit decides whether the request may enter the system. On admission it
// returns a release func the caller MUST invoke exactly once with the
// request's service duration and outcome; on shedding it returns a typed
// *OverloadError. Cancellation errors passed to release do not count
// against the breaker; ErrInternal failures do.
func (g *Gate) Admit(ctx context.Context) (release func(d time.Duration, err error), admitErr error) {
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()

	if g.cfg.BreakerThreshold > 0 {
		if !g.openUntil.IsZero() {
			if now.Before(g.openUntil) {
				g.shedBreaker++
				return nil, &OverloadError{
					Entry:      g.cfg.Entry,
					Reason:     "circuit open after consecutive internal faults",
					RetryAfter: g.openUntil.Sub(now),
				}
			}
			// Cooldown over: half-open. Exactly one probe goes through; an
			// internal failure re-opens immediately, any other completion
			// closes the breaker.
			g.openUntil = time.Time{}
			g.halfOpen = true
		}
		if g.halfOpen && g.probing {
			// A probe is already in flight. Admitting more traffic before
			// its outcome is known would land a thundering herd on a
			// possibly-still-broken entry, so shed until it resolves.
			g.shedBreaker++
			retry := g.ewma
			if retry <= 0 {
				retry = 10 * time.Millisecond
			}
			return nil, &OverloadError{
				Entry:      g.cfg.Entry,
				Reason:     "half-open: probe in flight",
				RetryAfter: retry,
			}
		}
	}

	if g.cfg.MaxQueue > 0 {
		if queued := g.admitted - g.cfg.Workers; queued >= g.cfg.MaxQueue {
			g.shedQueue++
			retry := g.expectedWaitLocked()
			if retry <= 0 {
				retry = 10 * time.Millisecond
			}
			return nil, &OverloadError{
				Entry:      g.cfg.Entry,
				Reason:     "queue full",
				RetryAfter: retry,
			}
		}
	}

	if dl, ok := ctx.Deadline(); ok {
		if wait := g.expectedWaitLocked(); wait > 0 && wait > dl.Sub(now) {
			g.shedDeadline++
			return nil, &OverloadError{
				Entry:      g.cfg.Entry,
				Reason:     "deadline unmeetable at current load",
				RetryAfter: wait,
			}
		}
	}

	g.admitted++
	g.admittedTotal++
	probe := false
	if g.halfOpen && !g.probing {
		// This request is the half-open probe; its release clears the
		// probing latch so the gate either closes or re-opens.
		g.probing = true
		probe = true
	}
	return func(d time.Duration, err error) { g.release(d, err, probe) }, nil
}

// release records one completed request: backlog shrinks, the service-time
// EWMA absorbs the sample, and the breaker counts the outcome.
func (g *Gate) release(d time.Duration, err error, probe bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.admitted--
	if probe {
		g.probing = false
	}
	// Cancellations say nothing about service speed or health: a client
	// giving up early must neither shrink the EWMA nor trip the breaker.
	// halfOpen is left as-is so the next arrival becomes the new probe.
	if err != nil && errors.Is(err, ErrCanceled) {
		return
	}
	if d > 0 {
		g.lat.observe(d)
		if g.ewma == 0 {
			g.ewma = d
		} else {
			// 1/8 smoothing: stable under noise, still adapts within ~16
			// requests when the workload shifts.
			g.ewma += (d - g.ewma) / 8
		}
	}
	if g.cfg.BreakerThreshold <= 0 {
		return
	}
	if err != nil && errors.Is(err, ErrInternal) {
		g.consecFails++
		if g.consecFails >= g.cfg.BreakerThreshold || g.halfOpen {
			g.openUntil = time.Now().Add(g.cfg.BreakerCooldown)
			g.breakerTrips++
			g.consecFails = 0
		}
		g.halfOpen = false
		return
	}
	if err == nil {
		g.consecFails = 0
	}
	// Success — or a non-internal failure like bad input: either way the
	// entry executed and answered, which is what a half-open probe exists
	// to establish. Clear halfOpen on both, or a single later internal
	// fault would re-open the breaker instantly despite healthy traffic.
	g.halfOpen = false
}

// GateStats is a snapshot of one entry's admission counters.
type GateStats struct {
	Entry    string `json:"entry"`
	Admitted int64  `json:"admitted"`
	// Queued is the instantaneous logical backlog (admitted − running).
	Queued int `json:"queued"`
	// ExpectedWaitUS is the current arrival-time wait estimate.
	ExpectedWaitUS float64 `json:"expected_wait_us"`
	// ServiceEWMAUS is the smoothed observed service time.
	ServiceEWMAUS float64 `json:"service_ewma_us"`
	// P50US/P99US are service-time quantiles from a log₂-bucketed
	// histogram (so ~±41% bucket resolution, zero until the first sample).
	P50US        float64 `json:"p50_us"`
	P99US        float64 `json:"p99_us"`
	ShedQueue    int64   `json:"shed_queue"`
	ShedDeadline int64   `json:"shed_deadline"`
	ShedBreaker  int64   `json:"shed_breaker"`
	BreakerOpen  bool    `json:"breaker_open"`
	BreakerTrips int64   `json:"breaker_trips"`
}

// Stats snapshots the gate.
func (g *Gate) Stats() GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	queued := g.admitted - g.cfg.Workers
	if queued < 0 {
		queued = 0
	}
	return GateStats{
		Entry:          g.cfg.Entry,
		Admitted:       g.admittedTotal,
		Queued:         queued,
		ExpectedWaitUS: float64(g.expectedWaitLocked().Microseconds()),
		ServiceEWMAUS:  float64(g.ewma.Microseconds()),
		P50US:          float64(g.lat.quantile(0.50).Microseconds()),
		P99US:          float64(g.lat.quantile(0.99).Microseconds()),
		ShedQueue:      g.shedQueue,
		ShedDeadline:   g.shedDeadline,
		ShedBreaker:    g.shedBreaker,
		BreakerOpen:    !g.openUntil.IsZero() && time.Now().Before(g.openUntil),
		BreakerTrips:   g.breakerTrips,
	}
}

// Healthy reports false while the breaker is open — the signal /healthz
// uses to flip to degraded.
func (g *Gate) Healthy() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.openUntil.IsZero() || !time.Now().Before(g.openUntil)
}
