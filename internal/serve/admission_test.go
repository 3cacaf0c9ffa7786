package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// policySim drives one entry's admission policy the way the scheduler
// does, with the clock and the entry's queue depth in the test's hands.
type policySim struct {
	t       *testing.T
	a       admission
	now     time.Time
	queued  int
	workers int
}

func newPolicySim(t *testing.T, workers int, cfg SchedConfig) *policySim {
	return &policySim{t: t, a: newAdmission("main", cfg.withDefaults(workers)), now: time.Unix(1000, 0), workers: workers}
}

func (p *policySim) clock() time.Time { return p.now }

// arrive asks the policy to admit an arrival with the given deadline
// (zero for none).
func (p *policySim) arrive(deadline time.Time) (probe bool, err error) {
	return p.a.admit(p.clock, p.queued, p.workers, deadline)
}

// mustArrive admits an arrival without a deadline or fails the test.
func (p *policySim) mustArrive() (probe bool) {
	p.t.Helper()
	probe, err := p.arrive(time.Time{})
	if err != nil {
		p.t.Fatalf("admit at queue depth %d: %v", p.queued, err)
	}
	return probe
}

// serve admits one request and ends it with err after busy.
func (p *policySim) serve(busy time.Duration, err error) {
	p.t.Helper()
	probe := p.mustArrive()
	p.a.settle(p.clock, busy, err, probe)
}

func (p *policySim) stats() GateStats { return p.a.snapshot(p.now, p.queued, p.workers) }

func (p *policySim) healthy() bool { return !p.stats().BreakerOpen }

// TestGateQueueBound: once MaxQueue of the entry's runs wait in the run
// queue, arrivals shed with ErrOverloaded and a positive Retry-After.
func TestGateQueueBound(t *testing.T) {
	p := newPolicySim(t, 2, SchedConfig{MaxQueue: 3})
	for p.queued = 0; p.queued < 3; p.queued++ {
		p.mustArrive()
	}
	_, err := p.arrive(time.Time{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("arrival behind 3 waiting runs: error = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("error %T does not unwrap to *OverloadError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	if oe.Entry != "main" {
		t.Errorf("Entry = %q, want main", oe.Entry)
	}
	// One waiting run adopted by a worker makes room again.
	p.queued--
	p.mustArrive()
	if st := p.stats(); st.ShedQueue != 1 || st.Admitted != 4 {
		t.Errorf("ShedQueue = %d, Admitted = %d; want 1, 4", st.ShedQueue, st.Admitted)
	}
}

// TestGateQueueUnbounded: negative MaxQueue disables the bound.
func TestGateQueueUnbounded(t *testing.T) {
	p := newPolicySim(t, 1, SchedConfig{MaxQueue: -1})
	for p.queued = 0; p.queued <= 100; p.queued++ {
		p.mustArrive()
	}
}

// TestGateDeadlineShed: a request whose deadline the backlog cannot meet
// is shed on arrival instead of queuing to time out.
func TestGateDeadlineShed(t *testing.T) {
	p := newPolicySim(t, 1, SchedConfig{MaxQueue: 100})
	// Seed the EWMA: 20ms service time.
	p.serve(20*time.Millisecond, nil)
	// 3 runs waiting for the one session → expected wait = 4 waves × 20ms = 80ms.
	p.queued = 3
	if _, err := p.arrive(p.now.Add(30 * time.Millisecond)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("doomed request error = %v, want ErrOverloaded", err)
	}
	if st := p.stats(); st.ShedDeadline != 1 || st.ExpectedWaitUS != 80000 {
		t.Errorf("ShedDeadline = %d, ExpectedWaitUS = %v; want 1, 80000", st.ShedDeadline, st.ExpectedWaitUS)
	}
	// A generous deadline still gets in.
	if _, err := p.arrive(p.now.Add(time.Second)); err != nil {
		t.Fatalf("meetable deadline shed: %v", err)
	}
}

// TestGateExpiredDeadlineShedUnseeded: a deadline already past is shed on
// arrival even before the first service time seeds the EWMA, when the
// expected wait still reads zero.
func TestGateExpiredDeadlineShedUnseeded(t *testing.T) {
	p := newPolicySim(t, 1, SchedConfig{})
	if _, err := p.arrive(p.now.Add(-time.Microsecond)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("past deadline on an unseeded policy: error = %v, want ErrOverloaded", err)
	}
	if _, err := p.arrive(p.now); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("deadline of now on an unseeded policy: error = %v, want ErrOverloaded", err)
	}
	if st := p.stats(); st.ShedDeadline != 2 || st.Admitted != 0 {
		t.Errorf("ShedDeadline = %d, Admitted = %d; want 2, 0", st.ShedDeadline, st.Admitted)
	}
	if _, err := p.arrive(p.now.Add(time.Millisecond)); err != nil {
		t.Fatalf("future deadline on an unseeded policy shed: %v", err)
	}
}

// TestGateCancellationNeutral: ErrCanceled outcomes neither feed the EWMA
// nor count toward the breaker.
func TestGateCancellationNeutral(t *testing.T) {
	p := newPolicySim(t, 1, SchedConfig{BreakerThreshold: 2})
	for i := 0; i < 10; i++ {
		p.serve(time.Hour, Canceled(context.Canceled)) // absurd duration must be ignored
	}
	if st := p.stats(); st.ServiceEWMAUS != 0 || st.P99US != 0 {
		t.Errorf("service times fed by canceled requests: EWMA %vµs, p99 %vµs", st.ServiceEWMAUS, st.P99US)
	}
	if !p.healthy() {
		t.Error("cancellations tripped the breaker")
	}
}

// TestGateBreaker: consecutive internal faults open the breaker; it sheds
// during cooldown, half-opens after, re-opens instantly on a half-open
// failure, and closes on a half-open success.
func TestGateBreaker(t *testing.T) {
	p := newPolicySim(t, 1, SchedConfig{BreakerThreshold: 3, BreakerCooldown: 40 * time.Millisecond, MaxQueue: -1})
	boom := &InternalError{Entry: "main", Panic: "boom"}

	// Two faults then a success: streak resets, breaker stays closed.
	for i := 0; i < 2; i++ {
		p.serve(time.Millisecond, boom)
	}
	p.serve(time.Millisecond, nil)
	if !p.healthy() {
		t.Fatal("breaker opened below threshold")
	}

	// Three consecutive faults: open.
	for i := 0; i < 3; i++ {
		p.serve(time.Millisecond, boom)
	}
	if p.healthy() {
		t.Fatal("breaker not open after threshold consecutive faults")
	}
	p.now = p.now.Add(10 * time.Millisecond)
	_, err := p.arrive(time.Time{})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("open-breaker admit error = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if errors.As(err, &oe) && oe.RetryAfter != 30*time.Millisecond {
		t.Errorf("open-breaker RetryAfter = %v, want the 30ms of cooldown left", oe.RetryAfter)
	}
	if st := p.stats(); st.BreakerTrips != 1 || st.ShedBreaker != 1 || !st.BreakerOpen {
		t.Errorf("stats after trip = %+v", st)
	}

	// Cooldown expires → half-open; one more fault re-opens immediately.
	p.now = p.now.Add(40 * time.Millisecond)
	p.serve(time.Millisecond, boom)
	if p.healthy() {
		t.Fatal("half-open fault did not re-open the breaker")
	}

	// Cooldown again → half-open; a success closes it for good.
	p.now = p.now.Add(50 * time.Millisecond)
	p.serve(time.Millisecond, nil)
	if !p.healthy() {
		t.Fatal("half-open success did not close the breaker")
	}
	// And a single subsequent fault does not trip it (streak restarted).
	p.serve(time.Millisecond, boom)
	if !p.healthy() {
		t.Fatal("closed breaker tripped on a single fault")
	}
}

// TestGateHalfOpenOutcomes pins what each probe outcome does to the
// half-open state. Regression test: a probe failing with a non-internal,
// non-canceled error (e.g. bad input) used to leave halfOpen set, so one
// later internal fault re-opened the breaker instantly despite the entry
// having proven it serves.
func TestGateHalfOpenOutcomes(t *testing.T) {
	boom := &InternalError{Entry: "main", Panic: "boom"}
	cases := []struct {
		name     string
		probeErr error
		// openAfterProbe: the probe outcome itself re-opens the breaker.
		openAfterProbe bool
		// openAfterNextFault: one subsequent internal fault re-opens it
		// (only meaningful when openAfterProbe is false).
		openAfterNextFault bool
	}{
		// Success closes the breaker; a single fault is below threshold.
		{name: "success", probeErr: nil},
		// A bad-input completion proves the entry serves: the breaker
		// closes just like success, and one fault does not re-open it.
		{name: "bad_input", probeErr: ErrBadInput},
		// An internal fault on the probe re-opens immediately.
		{name: "internal", probeErr: boom, openAfterProbe: true},
		// A canceled probe says nothing: half-open persists, so the next
		// admitted request is the new probe and its fault re-opens.
		{name: "canceled", probeErr: Canceled(context.Canceled), openAfterNextFault: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newPolicySim(t, 1, SchedConfig{BreakerThreshold: 3, BreakerCooldown: 30 * time.Millisecond, MaxQueue: -1})
			for i := 0; i < 3; i++ {
				p.serve(time.Millisecond, boom)
			}
			if p.healthy() {
				t.Fatal("breaker not open after threshold faults")
			}
			p.now = p.now.Add(30 * time.Millisecond) // half-open

			probe := p.mustArrive()
			if !probe {
				t.Fatal("first post-cooldown arrival is not the probe")
			}
			p.a.settle(p.clock, time.Millisecond, tc.probeErr, probe)
			if open := !p.healthy(); open != tc.openAfterProbe {
				t.Fatalf("breaker open after %s probe = %v, want %v", tc.name, open, tc.openAfterProbe)
			}
			if tc.openAfterProbe {
				return
			}
			p.serve(time.Millisecond, boom)
			if open := !p.healthy(); open != tc.openAfterNextFault {
				t.Fatalf("breaker open after post-probe fault = %v, want %v", open, tc.openAfterNextFault)
			}
		})
	}
}

// TestGateBreakerDisabled: negative threshold never opens.
func TestGateBreakerDisabled(t *testing.T) {
	p := newPolicySim(t, 1, SchedConfig{BreakerThreshold: -1, MaxQueue: -1})
	boom := &InternalError{Entry: "main", Panic: "boom"}
	for i := 0; i < 50; i++ {
		p.serve(time.Millisecond, boom)
	}
	if !p.healthy() {
		t.Fatal("disabled breaker opened")
	}
}

// TestGateEWMA: the estimate tracks observed service times.
func TestGateEWMA(t *testing.T) {
	p := newPolicySim(t, 1, SchedConfig{})
	p.serve(8*time.Millisecond, nil)
	if got := p.stats().ServiceEWMAUS; got != 8000 {
		t.Fatalf("first sample EWMA = %vµs, want 8000", got)
	}
	// 1/8 smoothing toward 16ms: 8 + (16-8)/8 = 9ms.
	p.serve(16*time.Millisecond, nil)
	if got := p.stats().ServiceEWMAUS; got != 9000 {
		t.Fatalf("smoothed EWMA = %vµs, want 9000", got)
	}
}

// halfOpenScheduler builds a one-entry scheduler over the bombed MLP whose
// breaker is half-open: threshold faults went through Submit and opened
// it, and its cooldown has ended. It returns the disarmed scheduler and a
// one-row input.
func halfOpenScheduler(t *testing.T, workers int) (*Scheduler, *tensor.Tensor) {
	t.Helper()
	m, res, ctl := compileMLPWithBomb(t)
	const threshold = 2
	sc, err := NewScheduler(res.Exe, workers, nil, SchedConfig{
		Entries:          []SchedEntry{{Name: "main"}},
		MaxQueue:         -1,
		BreakerThreshold: threshold,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := m.RandomBatch(rand.New(rand.NewSource(42)), 1)
	ctl.arm(true)
	for i := 0; i < threshold; i++ {
		if _, err := invokeTensors(context.Background(), sc, "main", in); !errors.Is(err, ErrInternal) {
			t.Fatalf("bombed request %d: %v, want ErrInternal", i, err)
		}
	}
	ctl.arm(false)
	if _, err := sc.Submit(context.Background(), 0, 0, false, "main", vm.NewTensorObj(in)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit to an open breaker: %v, want ErrOverloaded", err)
	}
	// End the cooldown as the passing of the hour would.
	sc.mu.Lock()
	sc.entries["main"].adm.openUntil = time.Now().Add(-time.Nanosecond)
	sc.mu.Unlock()
	return sc, in
}

// gateStats is the admission snapshot of a single-entry scheduler.
func gateStats(sc *Scheduler) GateStats {
	_, _, g := sc.Stats()
	return g[0]
}

// requireShedProbe checks that err is the half-open breaker shedding an
// arrival while its probe is unresolved.
func requireShedProbe(t *testing.T, err error) {
	t.Helper()
	var oe *OverloadError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("arrival beside the probe: %v, want an *OverloadError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}
}

// TestGateHalfOpenSingleProbe: when the cooldown expires, exactly one
// arrival may probe the entry; concurrent arrivals are shed with a
// Retry-After hint until the probe's outcome is known. Regression test for
// the half-open thundering herd: every post-cooldown arrival used to be
// admitted before the first outcome was observed. The herd goes through
// Scheduler.Submit, so the lock that admits is the one that queues.
func TestGateHalfOpenSingleProbe(t *testing.T) {
	sc, in := halfOpenScheduler(t, 4)
	defer sc.Close()
	release := holdSessions(sc) // the probe waits in the queue, unresolved

	const herd = 16
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		admitted []*Run
		shed     []error
	)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := sc.Submit(context.Background(), 0, 0, false, "main", vm.NewTensorObj(in))
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				admitted = append(admitted, r)
			} else {
				shed = append(shed, err)
			}
		}()
	}
	wg.Wait()
	if len(admitted) != 1 {
		t.Fatalf("half-open admitted %d of %d concurrent arrivals, want exactly 1 probe", len(admitted), herd)
	}
	if len(shed) != herd-1 {
		t.Fatalf("shed = %d, want %d", len(shed), herd-1)
	}
	for _, err := range shed {
		requireShedProbe(t, err)
	}

	// The probe succeeds: the breaker closes and traffic flows again.
	release()
	if _, err := admitted[0].Wait(); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if _, err := invokeTensors(context.Background(), sc, "main", in); err != nil {
		t.Fatalf("post-probe invoke: %v", err)
	}
	if st := gateStats(sc); st.BreakerOpen || st.ShedBreaker != herd {
		t.Errorf("after the probe: %+v, want the breaker closed and %d breaker sheds", st, herd)
	}
}

// TestGateCanceledProbeFreesTheLatch: a probe withdrawn from the run queue
// by its caller's cancellation settles as neutral — the breaker stays
// half-open and the next arrival becomes the new probe instead of being
// shed for ever behind a probe that will never run.
func TestGateCanceledProbeFreesTheLatch(t *testing.T) {
	sc, in := halfOpenScheduler(t, 1)
	defer sc.Close()
	release := holdSessions(sc)

	ctx, cancel := context.WithCancel(context.Background())
	probe, err := sc.Submit(ctx, 0, 0, false, "main", vm.NewTensorObj(in))
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	_, err = sc.Submit(context.Background(), 0, 0, false, "main", vm.NewTensorObj(in))
	requireShedProbe(t, err)
	cancel()
	if _, err := probe.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled probe: %v, want ErrCanceled", err)
	}

	next, err := sc.Submit(context.Background(), 0, 0, false, "main", vm.NewTensorObj(in))
	if err != nil {
		t.Fatalf("arrival after the canceled probe: %v, want it admitted as the new probe", err)
	}
	if !next.probe {
		t.Error("arrival after the canceled probe is not the new probe")
	}
	_, err = sc.Submit(context.Background(), 0, 0, false, "main", vm.NewTensorObj(in))
	requireShedProbe(t, err)
	release()
	if _, err := next.Wait(); err != nil {
		t.Fatalf("new probe: %v", err)
	}
	if st := gateStats(sc); st.BreakerOpen || st.Queued != 0 {
		t.Errorf("after the new probe: %+v, want the breaker closed and nothing queued", st)
	}
}

// TestGateClosedProbeSettles: a queued probe that Close flushes ends with
// ErrClosed, which — like any non-canceled end — resolves the half-open
// state, so the entry's policy would admit the next arrival.
func TestGateClosedProbeSettles(t *testing.T) {
	sc, in := halfOpenScheduler(t, 1)
	release := holdSessions(sc)
	defer release()

	probe, err := sc.Submit(context.Background(), 0, 0, false, "main", vm.NewTensorObj(in))
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	_, err = sc.Submit(context.Background(), 0, 0, false, "main", vm.NewTensorObj(in))
	requireShedProbe(t, err)
	sc.Close()
	if _, err := probe.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("flushed probe: %v, want ErrClosed", err)
	}

	sc.mu.Lock()
	e := sc.entries["main"]
	queued := e.sched.Queued
	_, err = e.adm.admit(time.Now, queued, len(sc.all), time.Time{})
	sc.mu.Unlock()
	if err != nil {
		t.Fatalf("policy after the flushed probe: %v, want the next arrival admitted", err)
	}
	if queued != 0 {
		t.Errorf("queued after Close = %d, want 0", queued)
	}
}
