package main

import "time"

// workload is one named traffic mix. Later issues cite these names, so
// they are fixed; the why is what BENCHMARK.json records.
type workload struct {
	name string
	why  string
	kind workloadKind
	// classes are the kinds of request in the mix. latency_* is measured on
	// class 0, which is also what the ladder replays; ttft_* is measured on
	// the streaming class when there is one, else on class 0.
	classes []classSpec
	// rate is the offered load of an open-loop HTTP workload, requests/s.
	rate float64
}

// classSpec is one request class: which model it calls, how many of it
// arrive per burst (burst workloads only), and the latency limits a
// completion must meet to count towards goodput. A zero limit is not
// checked. The limits are frozen at 5x to 25x the first recorded baseline's
// p50 (see README.md): wide enough that the ordinary tail stays inside, so
// goodput falls when the system sheds, fails or collapses, not when a p95
// wiggles. The closed-loop workloads have none; their goodput is plain
// throughput.
type classSpec struct {
	model        string
	perBurst     int
	latencyLimit time.Duration // due -> complete
	ttftLimit    time.Duration // due -> first output
}

type workloadKind int

const (
	kindLib  workloadKind = iota // in-process, closed loop, one caller on a Session
	kindHTTP                     // nimble-serve subprocess, open-loop Poisson over c connections
	kindSvc                      // in-process Registry, periodic bursts, a goroutine per request
)

const (
	burstPeriod = 100 * time.Millisecond
	// burstStagger is how long after the rows' burst the streams' burst
	// arrives: long enough that the rows are done (their p95 is 2 ms), and
	// early enough that the streams (30-50 ms) are done well before the next
	// beat. Half a period apart, a slow stream burst ran into the next rows.
	burstStagger = 10 * time.Millisecond
	// burstSpin is how long before each burst the generator polls the clock
	// instead of sleeping (see waitUntil): the machine is idle between
	// bursts, and an idle virtual machine wakes late.
	burstSpin = 5 * time.Millisecond
	// serverModels is what the HTTP workloads' server hosts: the model under
	// load plus two others, as a real multi-model deployment would.
	serverModels = "mlp,bert,decoder"
	// burstMaxQueue is the admission-queue bound the burst workload deploys
	// with. The default (4 x workers) sheds part of a 16-request burst by
	// design; the workload measures coalescing, not shedding, so the queue
	// is sized to hold a whole burst.
	burstMaxQueue = 64
)

var workloads = []workload{
	{
		name:    "lib.bert_dynlen",
		why:     "dynamic shapes, >=85% dense kernels: kernel work shows here, VM and serving work does not",
		kind:    kindLib,
		classes: []classSpec{{model: "bert"}},
	},
	{
		name:    "lib.treelstm_adt",
		why:     "recursion, match and ADT traffic around small kernels: the VM's non-kernel share is several times BERT's",
		kind:    kindLib,
		classes: []classSpec{{model: "treelstm"}},
	},
	{
		name:    "http.mlp_unary",
		why:     "sparse one-row POST /invoke at 300 req/s: JSON, registry, gate and the batch window dominate, not the model",
		kind:    kindHTTP,
		classes: []classSpec{{model: "mlp", latencyLimit: 10 * time.Millisecond}},
		rate:    300,
	},
	{
		name:    "http.decoder_stream",
		why:     "SSE token streams at 60/s: TTFT and completion through the stream scheduler, KV-cache and per-token flush",
		kind:    kindHTTP,
		classes: []classSpec{{model: "decoder", latencyLimit: 50 * time.Millisecond, ttftLimit: 10 * time.Millisecond}},
		rate:    60,
	},
	{
		name: "svc.burst_mixed",
		why:  "every 100 ms a burst of 32 rows, then one of 16 streams, in-process: the batcher's and scheduler's coalescing case",
		kind: kindSvc,
		// A burst is twice the batcher's max batch (16) and twice the stream
		// scheduler's window (8), so it always fills whole batches and both
		// sessions' windows. Bursts of exactly 16 and 8 sat on a knife-edge:
		// one late goroutine turned a full-batch flush into a timer flush, or
		// left all eight streams on one session, and the p50s flipped between
		// two values from one registry instance to the next.
		classes: []classSpec{
			{model: "mlp", perBurst: 32, latencyLimit: 10 * time.Millisecond},
			{model: "decoder", perBurst: 16, latencyLimit: 150 * time.Millisecond, ttftLimit: 25 * time.Millisecond},
		},
	},
}

// offeredRPS is the open-loop arrival rate, all classes together; 0 for a
// closed loop.
func (w *workload) offeredRPS() float64 {
	rps := w.rate
	for _, cl := range w.classes {
		rps += float64(cl.perBurst) / burstPeriod.Seconds()
	}
	return rps
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec is one catalogue entry; BENCHMARK.json carries the same list
// (a test keeps the two in step).
//
// Every bound is 0.25, the widest the benchmark contract allows. The
// reference host is a shared 2-vCPU VM whose speed wanders by 10-20% over
// seconds to minutes: across ten runs the interquartile spread of these
// medians is 3-12% (README.md has the table), and a bound has to clear both
// that and the drift between two sets of runs. A quieter host can tighten
// them; nothing tighter holds here.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"ttft_p50_ms", "ms", "lower", 0.25},
	{"goodput_rps", "1/s", "higher", 0.25},
}

var perLayer = []metricSpec{
	{name: "compile.total_ms", unit: "ms", better: "lower"},
	{name: "compile.pass.anf_ms", unit: "ms", better: "lower"},
	{name: "compile.pass.constant-fold_ms", unit: "ms", better: "lower"},
	{name: "compile.pass.dce_ms", unit: "ms", better: "lower"},
	{name: "compile.pass.fuse-ops_ms", unit: "ms", better: "lower"},
	{name: "compile.pass.manifest-alloc_ms", unit: "ms", better: "lower"},
	{name: "compile.pass.coalesce-storage_ms", unit: "ms", better: "lower"},
	{name: "compile.pass.place-devices_ms", unit: "ms", better: "lower"},
	{name: "compile.instructions", unit: "count", better: "lower"},
	{name: "compile.kernels", unit: "count", better: "lower"},
	{name: "kernels.time_us_per_req", unit: "us", better: "lower"},
	{name: "kernels.share", unit: "ratio", better: "lower"},
	{name: "kernels.calls_per_req", unit: "count", better: "lower"},
	{name: "kernels.dense_share", unit: "ratio", better: "lower"},
	{name: "kernels.dense_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "vm.others_us_per_req", unit: "us", better: "lower"},
	{name: "vm.others_share", unit: "ratio", better: "lower"},
	{name: "vm.instrs_per_req", unit: "count", better: "lower"},
	{name: "vm.go_allocs_per_req", unit: "count", better: "lower"},
	{name: "ladder.vm_us", unit: "us", better: "lower"},
	{name: "ladder.session_us", unit: "us", better: "lower"},
	{name: "ladder.service_us", unit: "us", better: "lower"},
	{name: "ladder.registry_us", unit: "us", better: "lower"},
	{name: "ladder.http_us", unit: "us", better: "lower"},
	{name: "serve.overhead_us", unit: "us", better: "lower"},
	{name: "serve.pool_wait_us", unit: "us", better: "lower"},
	{name: "serve.gate_shed", unit: "count", better: "lower"},
	{name: "serve.batch_mean_rows", unit: "count", better: "higher"},
	{name: "serve.batch_fill", unit: "ratio", better: "higher"},
	{name: "serve.sched_occupancy_ewma", unit: "count", better: "higher"},
	{name: "serve.sched_step_p50_us", unit: "us", better: "lower"},
	{name: "serve.quarantined", unit: "count", better: "lower"},
	{name: "registry.overhead_us", unit: "us", better: "lower"},
	{name: "registry.allocs_per_req", unit: "count", better: "lower"},
	{name: "http.overhead_us", unit: "us", better: "lower"},
	{name: "http.req_bytes", unit: "B", better: "lower"},
	{name: "http.resp_bytes", unit: "B", better: "lower"},
	{name: "session.us_per_token", unit: "us", better: "lower"},
	{name: "stream.complete_p50_ms", unit: "ms", better: "lower"},
	{name: "gen.late_p95_us", unit: "us", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
	{name: "trace.vm_rung_vs_session", unit: "ratio", better: "lower"},
}
