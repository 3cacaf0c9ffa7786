package serve

import (
	"errors"
	"time"
)

// admission is one entry's admission policy: a bound on the entry's runs
// waiting in the run queue, deadline-aware load shedding, and a
// consecutive-failure circuit breaker. It is part of the entry's
// schedEntry and, like the rest of it, guarded by Scheduler.mu; it has no
// lock and no clock of its own. Submit decides each arrival with admit in
// the critical section that queues the run, and every end of an admitted
// run settles its outcome exactly once. An arrival is shed when:
//
//   - the breaker is open (too many consecutive internal faults), or
//     half-open with its one probe still unresolved;
//   - maxQueue of the entry's runs already wait in the run queue — a
//     stream adopted into a session's window, or a row riding a coalesced
//     dispatch, is no longer waiting;
//   - the request carries a deadline already past, or one the backlog
//     makes unmeetable (expected wait, from an EWMA of observed service
//     times, exceeds the time remaining): shed on arrival instead of
//     timing out after occupying a queue slot.
//
// Shed requests fail fast with an *OverloadError carrying a Retry-After
// estimate, so clients back off instead of piling on.
type admission struct {
	// maxQueue is how many of the entry's runs may wait before arrivals
	// are shed; zero or negative leaves the queue unbounded.
	maxQueue int
	// threshold consecutive internal faults (ErrInternal — panics, not
	// cancellations or bad input) open the breaker for cooldown; zero or
	// negative disables it. The first post-cooldown arrival is the probe:
	// an internal fault re-opens the breaker at once, any other completion
	// closes it.
	threshold int
	cooldown  time.Duration

	ewma        time.Duration // service-time EWMA (0 until the first sample)
	consecFails int
	openUntil   time.Time // breaker open while now < openUntil
	halfOpen    bool      // cooldown expired; the next outcome decides
	probing     bool      // the half-open probe is admitted and unresolved

	// st keeps the counters; snapshot fills in the derived fields.
	st GateStats
	// lat distributes service times (cancellations excluded, like the
	// EWMA) for the P50/P99 stats.
	lat histogram
}

// newAdmission builds entry's policy from cfg, whose defaults are applied.
func newAdmission(entry string, cfg SchedConfig) admission {
	a := admission{maxQueue: cfg.MaxQueue, threshold: cfg.BreakerThreshold, cooldown: cfg.BreakerCooldown}
	a.st.Entry = entry
	return a
}

// wait estimates how long an arrival waits for its turn and is served:
// the queued runs ahead of it divided across the workers, plus its own
// service slot — a request whose deadline cannot cover even that is
// unmeetable at any queue depth. Zero until the first sample seeds the
// EWMA.
func (a *admission) wait(queued, workers int) time.Duration {
	return time.Duration(queued/workers+1) * a.ewma
}

func (a *admission) shed(reason string, retry time.Duration) *OverloadError {
	if retry <= 0 {
		retry = 10 * time.Millisecond
	}
	return &OverloadError{Entry: a.st.Entry, Reason: reason, RetryAfter: retry}
}

// admit decides one arrival while queued of the entry's runs wait for
// workers sessions. It returns whether the run is the half-open probe,
// whose end must be settled with probe set, or the *OverloadError it is
// shed with. now is called only when the breaker is not closed or the
// run has a deadline (deadline is zero for none).
func (a *admission) admit(now func() time.Time, queued, workers int, deadline time.Time) (probe bool, err error) {
	var t time.Time
	if !a.openUntil.IsZero() {
		if t = now(); t.Before(a.openUntil) {
			a.st.ShedBreaker++
			return false, a.shed("circuit open after consecutive internal faults", a.openUntil.Sub(t))
		}
		// Cooldown over: half-open. Exactly one probe goes through.
		a.openUntil = time.Time{}
		a.halfOpen = true
	}
	if a.halfOpen && a.probing {
		// Admitting more traffic before the probe's outcome is known would
		// land a thundering herd on a possibly still broken entry.
		a.st.ShedBreaker++
		return false, a.shed("half-open: probe in flight", a.ewma)
	}
	if a.maxQueue > 0 && queued >= a.maxQueue {
		a.st.ShedQueue++
		return false, a.shed("queue full", a.wait(queued, workers))
	}
	if !deadline.IsZero() {
		if t.IsZero() {
			t = now()
		}
		// A deadline already past is unmeetable before any service time
		// is known, too.
		if left, wait := deadline.Sub(t), a.wait(queued, workers); left <= 0 || wait > left {
			a.st.ShedDeadline++
			return false, a.shed("deadline unmeetable at current load", wait)
		}
	}
	a.st.Admitted++
	if a.halfOpen {
		a.probing = true
	}
	return a.halfOpen, nil
}

// settle records the end of one admitted run: err is its outcome, busy the
// time sessions spent stepping it, probe what admit returned for it. now
// is called only when the outcome opens the breaker.
func (a *admission) settle(now func() time.Time, busy time.Duration, err error, probe bool) {
	if probe {
		a.probing = false
	}
	// Cancellations say nothing about service speed or health: a client
	// giving up early must neither shrink the EWMA nor trip the breaker.
	// halfOpen is left as is, so the next arrival becomes the new probe.
	if errors.Is(err, ErrCanceled) {
		return
	}
	if busy > 0 {
		a.lat.observe(busy)
		if a.ewma == 0 {
			a.ewma = busy
		} else {
			// 1/8 smoothing: stable under noise, still adapts within ~16
			// requests when the workload shifts.
			a.ewma += (busy - a.ewma) / 8
		}
	}
	if a.threshold <= 0 {
		return
	}
	if errors.Is(err, ErrInternal) {
		a.consecFails++
		if a.consecFails >= a.threshold || a.halfOpen {
			a.openUntil = now().Add(a.cooldown)
			a.st.BreakerTrips++
			a.consecFails = 0
		}
		a.halfOpen = false
		return
	}
	if err == nil {
		a.consecFails = 0
	}
	// Success — or a non-internal failure like bad input: either way the
	// entry executed and answered, which is what a half-open probe exists
	// to establish. Clear halfOpen on both, or a single later internal
	// fault would re-open the breaker instantly despite healthy traffic.
	a.halfOpen = false
}

// snapshot returns the entry's admission counters at now, with queued of
// its runs waiting for workers sessions.
func (a *admission) snapshot(now time.Time, queued, workers int) GateStats {
	st := a.st
	st.Queued = queued
	st.ExpectedWaitUS = float64(a.wait(queued, workers).Microseconds())
	st.ServiceEWMAUS = float64(a.ewma.Microseconds())
	st.P50US = float64(a.lat.quantile(0.50).Microseconds())
	st.P99US = float64(a.lat.quantile(0.99).Microseconds())
	st.BreakerOpen = now.Before(a.openUntil)
	return st
}

// GateStats is a snapshot of one entry's admission counters.
type GateStats struct {
	Entry    string `json:"entry"`
	Admitted int64  `json:"admitted"`
	// Queued is the entry's runs waiting in the run queue right now, the
	// count the bound applies to (equal to SchedStats.Queued).
	Queued int `json:"queued"`
	// ExpectedWaitUS is the current arrival-time wait estimate.
	ExpectedWaitUS float64 `json:"expected_wait_us"`
	// ServiceEWMAUS smooths the service time of ended runs: the time
	// sessions spent stepping each, its queue wait excluded (a coalesced
	// request's is its batch's).
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
