package main

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// TestMetricsCatalog pins the /metrics catalog: every family name, in
// exposition order. Against the hand-mapped handler this table replaced,
// three names are gone, each with the code that fed it:
// nimble_batch_overflow_total (the batcher's queue-overflow path),
// nimble_sched_shed_deadline_total and nimble_sched_projected_wait_seconds
// (the scheduler's own arrival-time shed; the gate's remains).
func TestMetricsCatalog(t *testing.T) {
	want := strings.Fields(`
		nimble_up nimble_uptime_seconds nimble_models
		nimble_version_canary nimble_version_traffic_percent nimble_version_requests_in_flight
		nimble_pool_workers nimble_pool_invocations_total nimble_pool_errors_total
		nimble_pool_in_flight nimble_pool_peak_in_use nimble_pool_waits_total
		nimble_pool_wait_seconds_total nimble_pool_quarantined_total
		nimble_gate_admitted_total nimble_gate_queued nimble_gate_expected_wait_seconds
		nimble_gate_service_ewma_seconds nimble_gate_service_p50_seconds nimble_gate_service_p99_seconds
		nimble_gate_shed_queue_total nimble_gate_shed_deadline_total nimble_gate_shed_breaker_total
		nimble_gate_breaker_open nimble_gate_breaker_trips_total
		nimble_sched_submitted_total nimble_sched_completed_total nimble_sched_canceled_total
		nimble_sched_failed_total nimble_sched_queued nimble_sched_active nimble_sched_sessions
		nimble_sched_peak_occupancy nimble_sched_occupancy_ewma nimble_sched_steps_total
		nimble_sched_steps_per_stream nimble_sched_step_ewma_seconds nimble_sched_step_p50_seconds
		nimble_sched_step_p99_seconds
		nimble_batch_batches_total nimble_batch_singles_total nimble_batch_coalesced_total
		nimble_batch_fallback_total nimble_batch_largest_batch
		nimble_entry_healthy
		nimble_shared_storage_resident_bytes nimble_shared_storage_hits_total
		nimble_shared_storage_misses_total nimble_shared_storage_donated_total
		nimble_shared_storage_dropped_total`)
	var got []string
	for _, f := range families {
		got = append(got, f.name)
		if isCounter := strings.HasSuffix(f.name, "_total"); isCounter != (f.typ == "counter") || (!isCounter && f.typ != "gauge") {
			t.Errorf("%s: type %q does not match its name", f.name, f.typ)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("metric families changed:\n got %v\nwant %v", got, want)
	}

	// The MLP server coalesces its row-separable entry, so every family of
	// the catalog has at least one sample there.
	s := testServer(t)
	if w := postInvoke(t, s, validBody(1)); w.Code != http.StatusOK {
		t.Fatalf("invoke status = %d", w.Code)
	}
	w := httptest.NewRecorder()
	s.handleMetrics(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := w.Body.String()
	for _, name := range want {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("/metrics has no %s family", name)
		}
	}
}
