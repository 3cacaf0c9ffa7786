package main

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"nimble"
)

// scope says which rows a metric family has and how they are labeled.
type scope int

const (
	perServer  scope = iota // one unlabeled sample
	perShared               // one unlabeled sample, only with a shared storage tier
	perVersion              // {model, version}
	perGate                 // {model, version, entry}, from the entry's admission policy
	perSched                // {model, version, entry}, from the run queue
	perBatch                // {model, version, entry}, row-separable entries only
	perHealth               // {model, version, entry}, from the breaker
	numScopes
)

// sample is one row of a scope: its rendered label set and the stats the
// scope's families read (only the fields of that scope are set).
type sample struct {
	labels string
	srv    serverSample
	shared nimble.SharedStorageStats
	v      nimble.VersionStatus
	g      nimble.GateStats
	sc     nimble.SchedulerStats
	b      nimble.BatcherStats
	h      nimble.EntryHealth
}

type serverSample struct {
	up     bool
	uptime time.Duration
	models int
}

func flag01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// families is the whole /metrics catalog (documented in
// docs/operations.md), in exposition order: one line per family, and the
// handler below is the only code that walks it. Durations are exported in
// seconds (Prometheus base units) even though /stats reports microseconds.
var families = []struct {
	name, typ, help string
	scope           scope
	value           func(sample) float64
}{
	{"nimble_up", "gauge", "1 when no live version has an open circuit breaker.", perServer, func(s sample) float64 { return flag01(s.srv.up) }},
	{"nimble_uptime_seconds", "gauge", "Seconds since the server started.", perServer, func(s sample) float64 { return s.srv.uptime.Seconds() }},
	{"nimble_models", "gauge", "Models deployed in the registry.", perServer, func(s sample) float64 { return float64(s.srv.models) }},

	{"nimble_version_canary", "gauge", "1 while this version is the canary of a rollout.", perVersion, func(s sample) float64 { return flag01(s.v.State == nimble.VersionCanary) }},
	{"nimble_version_traffic_percent", "gauge", "Configured unpinned-traffic share (canary only).", perVersion, func(s sample) float64 { return float64(s.v.Percent) }},
	{"nimble_version_requests_in_flight", "gauge", "Requests and open streams queued or running on the version's scheduler.", perVersion, func(s sample) float64 { return float64(s.v.InFlight) }},

	{"nimble_pool_workers", "gauge", "Sessions the scheduler drives.", perVersion, func(s sample) float64 { return float64(s.v.Stats.Pool.Workers) }},
	{"nimble_pool_invocations_total", "counter", "Requests served on a session.", perVersion, func(s sample) float64 { return float64(s.v.Stats.Pool.Invocations) }},
	{"nimble_pool_errors_total", "counter", "Served requests that returned an error.", perVersion, func(s sample) float64 { return float64(s.v.Stats.Pool.Errors) }},
	{"nimble_pool_in_flight", "gauge", "Sessions busy right now.", perVersion, func(s sample) float64 { return float64(s.v.Stats.Pool.InFlight) }},
	{"nimble_pool_peak_in_use", "gauge", "Most sessions ever in use at once.", perVersion, func(s sample) float64 { return float64(s.v.Stats.Pool.PeakInUse) }},
	{"nimble_pool_waits_total", "counter", "Requests that queued with every session busy.", perVersion, func(s sample) float64 { return float64(s.v.Stats.Pool.Waits) }},
	{"nimble_pool_wait_seconds_total", "counter", "Time requests that queued with every session busy spent in the run queue.", perVersion, func(s sample) float64 { return s.v.Stats.Pool.WaitTime.Seconds() }},
	{"nimble_pool_quarantined_total", "counter", "Poisoned sessions replaced by fresh VMs.", perVersion, func(s sample) float64 { return float64(s.v.Stats.Pool.Quarantined) }},

	{"nimble_gate_admitted_total", "counter", "Requests admitted past the gate.", perGate, func(s sample) float64 { return float64(s.g.Admitted) }},
	{"nimble_gate_queued", "gauge", "Admitted requests not yet running.", perGate, func(s sample) float64 { return float64(s.g.Queued) }},
	{"nimble_gate_expected_wait_seconds", "gauge", "Arrival-time wait estimate.", perGate, func(s sample) float64 { return s.g.ExpectedWaitUS / 1e6 }},
	{"nimble_gate_service_ewma_seconds", "gauge", "Smoothed service time.", perGate, func(s sample) float64 { return s.g.ServiceEWMAUS / 1e6 }},
	{"nimble_gate_service_p50_seconds", "gauge", "Service-time median (log2-bucket histogram).", perGate, func(s sample) float64 { return s.g.P50US / 1e6 }},
	{"nimble_gate_service_p99_seconds", "gauge", "Service-time 99th percentile (log2-bucket histogram).", perGate, func(s sample) float64 { return s.g.P99US / 1e6 }},
	{"nimble_gate_shed_queue_total", "counter", "Arrivals shed because the queue was full.", perGate, func(s sample) float64 { return float64(s.g.ShedQueue) }},
	{"nimble_gate_shed_deadline_total", "counter", "Arrivals shed because their deadline was unmeetable.", perGate, func(s sample) float64 { return float64(s.g.ShedDeadline) }},
	{"nimble_gate_shed_breaker_total", "counter", "Arrivals shed by an open circuit breaker.", perGate, func(s sample) float64 { return float64(s.g.ShedBreaker) }},
	{"nimble_gate_breaker_open", "gauge", "1 while the entry's breaker is open.", perGate, func(s sample) float64 { return flag01(s.g.BreakerOpen) }},
	{"nimble_gate_breaker_trips_total", "counter", "Times the breaker opened.", perGate, func(s sample) float64 { return float64(s.g.BreakerTrips) }},

	{"nimble_sched_submitted_total", "counter", "Requests submitted to the run queue.", perSched, func(s sample) float64 { return float64(s.sc.Submitted) }},
	{"nimble_sched_completed_total", "counter", "Requests that finished cleanly.", perSched, func(s sample) float64 { return float64(s.sc.Completed) }},
	{"nimble_sched_canceled_total", "counter", "Requests canceled by their caller.", perSched, func(s sample) float64 { return float64(s.sc.Canceled) }},
	{"nimble_sched_failed_total", "counter", "Requests that failed (faults, poisoning, close).", perSched, func(s sample) float64 { return float64(s.sc.Failed) }},
	{"nimble_sched_queued", "gauge", "Requests waiting for a session.", perSched, func(s sample) float64 { return float64(s.sc.Queued) }},
	{"nimble_sched_active", "gauge", "Requests adopted by workers right now.", perSched, func(s sample) float64 { return float64(s.sc.Active) }},
	{"nimble_sched_sessions", "gauge", "Sessions the scheduler drives right now.", perSched, func(s sample) float64 { return float64(s.sc.Sessions) }},
	{"nimble_sched_peak_occupancy", "gauge", "Most runs one session ever interleaved.", perSched, func(s sample) float64 { return float64(s.sc.PeakOccupancy) }},
	{"nimble_sched_occupancy_ewma", "gauge", "Smoothed number of requests sharing a step.", perSched, func(s sample) float64 { return s.sc.OccupancyEWMA }},
	{"nimble_sched_steps_total", "counter", "Steps (loop iterations) executed.", perSched, func(s sample) float64 { return float64(s.sc.Steps) }},
	{"nimble_sched_steps_per_stream", "gauge", "Smoothed steps per completed request.", perSched, func(s sample) float64 { return s.sc.StepsPerStream }},
	{"nimble_sched_step_ewma_seconds", "gauge", "Smoothed per-step latency.", perSched, func(s sample) float64 { return s.sc.StepEWMAUS / 1e6 }},
	{"nimble_sched_step_p50_seconds", "gauge", "Per-step latency median (log2-bucket histogram).", perSched, func(s sample) float64 { return s.sc.StepP50US / 1e6 }},
	{"nimble_sched_step_p99_seconds", "gauge", "Per-step latency 99th percentile (log2-bucket histogram).", perSched, func(s sample) float64 { return s.sc.StepP99US / 1e6 }},

	{"nimble_batch_batches_total", "counter", "Coalesced dispatches executed.", perBatch, func(s sample) float64 { return float64(s.b.Batches) }},
	{"nimble_batch_singles_total", "counter", "Coalescible requests dispatched alone.", perBatch, func(s sample) float64 { return float64(s.b.Singles) }},
	{"nimble_batch_coalesced_total", "counter", "Requests that rode a shared dispatch.", perBatch, func(s sample) float64 { return float64(s.b.Coalesced) }},
	{"nimble_batch_fallback_total", "counter", "Requests re-run alone after a coalesced dispatch failed.", perBatch, func(s sample) float64 { return float64(s.b.Fallbacks) }},
	{"nimble_batch_largest_batch", "gauge", "Largest coalesced dispatch so far.", perBatch, func(s sample) float64 { return float64(s.b.LargestBatch) }},

	{"nimble_entry_healthy", "gauge", "1 while the entry's circuit breaker is closed.", perHealth, func(s sample) float64 { return flag01(s.h.Healthy) }},

	{"nimble_shared_storage_resident_bytes", "gauge", "Bytes parked in the cross-model storage tier.", perShared, func(s sample) float64 { return float64(s.shared.ResidentBytes) }},
	{"nimble_shared_storage_hits_total", "counter", "Local-miss acquisitions served by the shared tier.", perShared, func(s sample) float64 { return float64(s.shared.Hits) }},
	{"nimble_shared_storage_misses_total", "counter", "Shared-tier lookups that fell through to allocation.", perShared, func(s sample) float64 { return float64(s.shared.Misses) }},
	{"nimble_shared_storage_donated_total", "counter", "Per-session overflow storages adopted by the shared tier.", perShared, func(s sample) float64 { return float64(s.shared.Donated) }},
	{"nimble_shared_storage_dropped_total", "counter", "Donations refused at the per-class bound.", perShared, func(s sample) float64 { return float64(s.shared.Dropped) }},
}

// handleMetrics renders every live model-version's counters in the
// Prometheus text exposition format, hand-rolled so the binary stays
// dependency-free: it gathers one sample per row of every scope, then
// writes each family of the table above as one HELP/TYPE header and one
// line per sample of its scope.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	models := s.reg.Models()
	var rows [numScopes][]sample
	srv := serverSample{up: true, uptime: time.Since(s.start), models: len(models)}
	for _, ms := range models {
		for _, vs := range ms.Versions {
			if vs.Health.Degraded {
				srv.up = false
			}
			mv := fmt.Sprintf("model=%q,version=%q", ms.Name, vs.Version)
			entry := func(name string) string { return fmt.Sprintf("{%s,entry=%q}", mv, name) }
			rows[perVersion] = append(rows[perVersion], sample{labels: "{" + mv + "}", v: vs})
			for _, g := range vs.Stats.Gates {
				rows[perGate] = append(rows[perGate], sample{labels: entry(g.Entry), g: g})
			}
			for _, sc := range vs.Stats.Schedulers {
				rows[perSched] = append(rows[perSched], sample{labels: entry(sc.Entry), sc: sc})
			}
			for _, b := range vs.Stats.Batchers {
				rows[perBatch] = append(rows[perBatch], sample{labels: entry(b.Entry), b: b})
			}
			for _, h := range vs.Health.Entries {
				rows[perHealth] = append(rows[perHealth], sample{labels: entry(h.Entry), h: h})
			}
		}
	}
	rows[perServer] = []sample{{srv: srv}}
	rows[perShared] = []sample{{shared: s.reg.SharedStorageStats()}}

	var b strings.Builder
	for _, f := range families {
		if len(rows[f.scope]) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, r := range rows[f.scope] {
			fmt.Fprintf(&b, "%s%s %g\n", f.name, r.labels, f.value(r))
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
