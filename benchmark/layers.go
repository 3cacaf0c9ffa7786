package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	"nimble"
	"nimble/internal/compiler"
	"nimble/internal/ir"
	"nimble/internal/passes"
	"nimble/internal/vm"
	"nimble/tensor"
)

// passNames is passes.DefaultPipeline in order; each gets a
// compile.pass.<name>_ms metric.
var passNames = []string{"anf", "constant-fold", "dce", "fuse-ops", "manifest-alloc", "coalesce-storage", "place-devices"}

const compileReps = 3 // compile timings are medians of this many fresh compiles

// compileMetrics times the compiler on the workload's model from outside:
// compiler.Compile as a whole, and the benchmark's own pass manager over
// the default pipeline with a timestamp after every pass. A pass's time
// includes the type inference the manager runs before it (for the first
// pass, the initial inference of the whole module).
func compileMetrics(m *model, out metrics) error {
	var total []float64
	perPass := map[string][]float64{}
	var stats compiler.Stats
	for rep := 0; rep < compileReps; rep++ {
		mod := m.module()
		t0 := time.Now()
		res, err := compiler.Compile(mod, compiler.Options{})
		if err != nil {
			return err
		}
		total = append(total, ms(time.Since(t0)))
		stats = res.Stats

		mod = m.module()
		mgr := passes.DefaultPipeline(ir.CPU(0))
		last := time.Now()
		mgr.AfterPass = func(name string, _ *ir.Module) error {
			now := time.Now()
			perPass[name] = append(perPass[name], ms(now.Sub(last)))
			last = now
			return nil
		}
		if err := mgr.Run(mod); err != nil {
			return err
		}
	}
	out.set("compile.total_ms", median(total), "ms", compileReps)
	for _, name := range passNames {
		out.set("compile.pass."+name+"_ms", median(perPass[name]), "ms", len(perPass[name]))
	}
	out.set("compile.instructions", float64(stats.Instructions), "count", 1)
	out.set("compile.kernels", float64(stats.Kernels), "count", 1)
	return nil
}

// kernelTracer wraps every kernel of an executable with a span. It is used
// by one goroutine (the ladder's single caller).
type kernelTracer struct {
	rec     *recorder
	parent  int // the vm.invoke span the next kernel calls belong to
	req     int
	classes map[string]*kernelClassStat
}

type kernelClassStat struct {
	ns    int64
	calls int64
	flops int64 // dense classes only, computed from argument shapes
}

var fusedName = regexp.MustCompile(`^fused\d+\((.*)\)$`)

// kernelClass groups the compiler's per-site kernel names into operator
// classes: "fused7(dense+bias_add)" and "fused12(dense+bias_add)" are both
// "dense+bias_add", attributes are dropped, and all shape functions are one
// class.
func kernelClass(name string) string {
	if strings.HasPrefix(name, "shape:") {
		return "shape_func"
	}
	if m := fusedName.FindStringSubmatch(name); m != nil {
		name = m[1]
	}
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	if strings.HasPrefix(name, "dense_sym_dispatch") {
		return "dense"
	}
	return name
}

// denseFlops is 2·M·K·N for a kernel whose first two arguments are
// [M,K] and [K,N] — computed from the shapes, not measured.
func denseFlops(args []*tensor.Tensor) int64 {
	if len(args) < 2 || args[0].Rank() != 2 || args[1].Rank() != 2 {
		return 0
	}
	a, b := args[0].Shape(), args[1].Shape()
	if a[1] != b[0] {
		return 0
	}
	return 2 * int64(a[0]) * int64(a[1]) * int64(b[1])
}

func (k *kernelTracer) wrap(name string, fn vm.PackedFunc) vm.PackedFunc {
	class := kernelClass(name)
	st := k.classes[class]
	if st == nil {
		st = &kernelClassStat{}
		k.classes[class] = st
	}
	dense := strings.HasPrefix(class, "dense")
	spanName := "kernel:" + name
	return func(args []*tensor.Tensor, out *tensor.Tensor) (*tensor.Tensor, error) {
		t0 := time.Now()
		res, err := fn(args, out)
		t1 := time.Now()
		if k.parent != 0 {
			k.rec.add(k.parent, k.req, spanName, t0, t1)
		}
		st.ns += t1.Sub(t0).Nanoseconds()
		st.calls++
		if dense {
			st.flops += denseFlops(args)
		}
		return res, err
	}
}

// rung is one step of the ladder: the same cases, one caller, through one
// entry point.
type rung struct {
	name      string
	call      caller
	afterWarm func() // zeroes the caller's counters once the warm-up is over

	latUS     []float64 // per correct request
	totalUS   float64
	mallocs   float64 // Go heap allocations per request
	failed    int
	attempted int
}

const ladderWarmCases = 4 // requests sent through a rung before it is measured

// runRungs measures a group of rungs together: each is warmed on a few
// cases, then every case is sent through every rung of the group in turn
// before the next case. Interleaving puts the rungs' samples seconds apart
// instead of a pass apart, so the host's slow drift (10-20% over a pass,
// here) falls on all of them alike and the differences between rungs, which
// are what the ladder is for, are differences of like with like.
// Allocations are read from the runtime around each call, outside its
// timing; they count everything the process allocated meanwhile.
func runRungs(rungs []*rung, cases []*testCase, rec *recorder) error {
	for _, r := range rungs {
		for _, c := range cases[:min(ladderWarmCases, len(cases))] {
			if res := r.call(c); res.err != nil {
				return fmt.Errorf("benchmark: ladder rung %s: %w", r.name, res.err)
			}
		}
		if r.afterWarm != nil {
			r.afterWarm()
		}
	}
	var before, after runtime.MemStats
	for i, c := range cases {
		for _, r := range rungs {
			runtime.ReadMemStats(&before)
			res := r.call(c)
			runtime.ReadMemStats(&after)
			r.attempted++
			r.mallocs += float64(after.Mallocs-before.Mallocs) / float64(len(cases))
			if res.err == nil {
				res.err = check(c, res.reply)
			}
			if res.err != nil {
				r.failed++
				continue
			}
			us := float64(res.end.Sub(res.start).Nanoseconds()) / 1e3
			r.latUS = append(r.latUS, us)
			r.totalUS += us
			if r.name != "vm" { // the vm rung records its own spans, with kernel children
				rec.add(0, i+1, "ladder."+r.name, res.start, res.end)
			}
		}
	}
	for _, r := range rungs {
		if len(r.latUS) == 0 {
			return fmt.Errorf("benchmark: ladder rung %s has no correct sample", r.name)
		}
	}
	return nil
}

// ladder replays the cases through each successively outer entry point and
// derives the per-layer metrics from the rungs. top names the rung the
// workload's own requests enter at; kernel and VM shares are taken of that
// rung's time.
func ladder(e *env, m *model, cases []*testCase, top string, rec *recorder, out metrics) (attempted, failed int, serviceStats nimble.ServiceStats, err error) {
	ctx := e.ctx
	// The in-process rungs have one caller and use the whole machine.
	if err := e.place(kindLib); err != nil {
		return 0, 0, serviceStats, err
	}

	// VM, plain: exact instruction counts from the profiler (timing off)
	// and the interpreter's Go allocations.
	res, err := compiler.Compile(m.module(), compiler.Options{})
	if err != nil {
		return 0, 0, serviceStats, err
	}
	plain := vm.New(res.Exe)
	prof := vm.NewProfiler()
	prof.Timing = false
	plain.SetProfiler(prof)
	vmPlain := &rung{name: "vm_plain", call: vmCaller(ctx, plain, m), afterWarm: prof.Reset}

	// VM, every kernel wrapped in a span. Spans and kernel totals start
	// after the warm-up requests.
	res, err = compiler.Compile(m.module(), compiler.Options{})
	if err != nil {
		return 0, 0, serviceStats, err
	}
	kt := &kernelTracer{rec: rec, classes: map[string]*kernelClassStat{}}
	if err := res.Exe.WrapKernels(kt.wrap); err != nil {
		return 0, 0, serviceStats, err
	}
	inner := vmCaller(ctx, vm.New(res.Exe), m)
	measuring := false
	vmRung := &rung{name: "vm",
		call: func(c *testCase) callResult {
			if !measuring {
				return inner(c)
			}
			kt.req++
			kt.parent = rec.reserve()
			r := inner(c)
			rec.finish(kt.parent, 0, kt.req, "vm.invoke", r.start, r.end)
			kt.parent = 0
			return r
		},
		afterWarm: func() {
			measuring = true
			for _, st := range kt.classes {
				*st = kernelClassStat{}
			}
		}}

	// Session, Service and Registry through the public API, over one
	// Program so that they share one copy of the weights.
	prog, err := m.compile()
	if err != nil {
		return 0, 0, serviceStats, err
	}
	sess := prog.NewSession()
	defer sess.Close()
	svc, err := prog.Serve(nimble.WithWorkers(e.procs))
	if err != nil {
		return 0, 0, serviceStats, err
	}
	defer svc.Close()
	reg := nimble.NewRegistry(nimble.WithServeDefaults(nimble.WithWorkers(e.procs)))
	defer reg.Close()
	if _, err := reg.Deploy(m.name, prog); err != nil {
		return 0, 0, serviceStats, err
	}
	sessRung := &rung{name: "session", call: apiCaller(ctx, sess, m)}
	svcRung := &rung{name: "service", call: apiCaller(ctx, svc, m)}
	regRung := &rung{name: "registry", call: apiCaller(ctx, registryModel{reg, m.name}, m)}

	inProcess := []*rung{vmPlain, vmRung, sessRung, svcRung, regRung}
	if err := runRungs(inProcess, cases, rec); err != nil {
		return 0, 0, serviceStats, err
	}
	serviceStats = svc.Stats()
	out.set("vm.instrs_per_req", float64(prof.TotalInstrs())/float64(len(cases)), "count", len(cases))
	out.set("vm.go_allocs_per_req", vmPlain.mallocs, "count", len(cases))

	// HTTP on one keep-alive connection, with the processors split as for
	// the HTTP workloads. It cannot be interleaved with the others, which
	// want the whole machine.
	bin, err := e.serverBinary()
	if err != nil {
		return 0, 0, serviceStats, err
	}
	if err := e.place(kindHTTP); err != nil {
		return 0, 0, serviceStats, err
	}
	srv, _, err := startServer(e, bin, filepath.Join(e.outDir, "server-ladder-"+m.name+".log"), m.name)
	if err != nil {
		return 0, 0, serviceStats, err
	}
	sizes := &httpSizes{}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	httpRung := &rung{name: "http", call: httpCaller(client, srv.base, m, sizes)}
	err = runRungs([]*rung{httpRung}, cases, rec)
	client.CloseIdleConnections()
	srv.stop()
	if err != nil {
		return 0, 0, serviceStats, err
	}
	for _, r := range append(inProcess, httpRung) {
		attempted += r.attempted
		failed += r.failed
	}

	rungs := map[string]*rung{"session": sessRung, "service": svcRung, "registry": regRung, "http": httpRung}
	for _, r := range []*rung{vmRung, sessRung, svcRung, regRung, httpRung} {
		d := summarize(r.latUS)
		out.setDist("ladder."+r.name+"_us", d.Median, "us", d)
	}
	med := func(r *rung) float64 { return summarize(r.latUS).Median }
	out.set("serve.overhead_us", med(svcRung)-med(sessRung), "us", len(cases))
	out.set("registry.overhead_us", med(regRung)-med(svcRung), "us", len(cases))
	out.set("http.overhead_us", med(httpRung)-med(regRung), "us", len(cases))
	out.set("registry.allocs_per_req", regRung.mallocs-svcRung.mallocs, "count", len(cases))
	out.set("http.req_bytes", float64(sizes.reqBytes)/float64(sizes.requests), "B", sizes.requests)
	out.set("http.resp_bytes", float64(sizes.respBytes)/float64(sizes.requests), "B", sizes.requests)
	// How much the kernel spans cost: the wrapped VM against the public
	// Session over the same cases.
	out.set("trace.vm_rung_vs_session", vmRung.totalUS/sessRung.totalUS, "ratio", len(cases))
	out.set("session.us_per_token", sessRung.totalUS/float64(totalTokens(cases)), "us", totalTokens(cases))

	// Kernel and interpreter time per request, from the wrapped VM rung, as
	// shares of the mean request time at the workload's own rung.
	var kernelNS, kernelCalls int64
	type classRow struct {
		name string
		st   *kernelClassStat
	}
	var rows []classRow
	var denseNS, denseFlopsTotal int64
	for name, st := range kt.classes {
		kernelNS += st.ns
		kernelCalls += st.calls
		rows = append(rows, classRow{name, st})
		if strings.HasPrefix(name, "dense") {
			denseNS += st.ns
			denseFlopsTotal += st.flops
		}
	}
	// The interpreter's own time is the self time of the vm.invoke spans:
	// each span minus what its kernel children cover.
	spans := rec.snapshot()
	self := selfTimes(spans)
	var othersNS int64
	for _, s := range spans {
		if s.Name == "vm.invoke" {
			othersNS += self[s.ID]
		}
	}
	n := float64(vmRung.attempted)
	kernelUS := float64(kernelNS) / 1e3 / n
	othersUS := float64(othersNS) / 1e3 / n
	topUS := rungs[top].totalUS / float64(len(rungs[top].latUS))
	out.set("kernels.time_us_per_req", kernelUS, "us", int(n))
	out.set("kernels.calls_per_req", float64(kernelCalls)/n, "count", int(n))
	out.set("kernels.share", kernelUS/topUS, "ratio", int(n))
	out.set("vm.others_us_per_req", othersUS, "us", int(n))
	out.set("vm.others_share", othersUS/topUS, "ratio", int(n))
	if kernelNS > 0 {
		out.set("kernels.dense_share", float64(denseNS)/float64(kernelNS), "ratio", int(n))
	}
	if denseNS > 0 {
		out.set("kernels.dense_gflops", float64(denseFlopsTotal)/float64(denseNS), "GFLOP/s", int(n))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].st.ns > rows[j].st.ns })
	for i, row := range rows[:min(5, len(rows))] {
		// The names differ by workload, so these go to the report and the
		// result file but are not part of BENCHMARK.json's fixed list.
		out.setInfo(fmt.Sprintf("kernels.top%d.%s.share", i+1, row.name), float64(row.st.ns)/float64(kernelNS), "ratio", int(row.st.calls))
	}
	return attempted, failed, serviceStats, nil
}

// statsSince subtracts an earlier snapshot's counters from a later one's,
// entry by entry. Smoothed values and histogram quantiles cannot be
// subtracted and are left as the later snapshot has them.
func statsSince(now, before nimble.ServiceStats) nimble.ServiceStats {
	now.Pool.Invocations -= before.Pool.Invocations
	now.Pool.Waits -= before.Pool.Waits
	now.Pool.WaitTime -= before.Pool.WaitTime
	now.Pool.Quarantined -= before.Pool.Quarantined
	for i := range now.Batchers {
		if i < len(before.Batchers) && before.Batchers[i].Entry == now.Batchers[i].Entry {
			b := before.Batchers[i]
			now.Batchers[i].Batches -= b.Batches
			now.Batchers[i].Singles -= b.Singles
			now.Batchers[i].Coalesced -= b.Coalesced
		}
	}
	for i := range now.Gates {
		if i < len(before.Gates) && before.Gates[i].Entry == now.Gates[i].Entry {
			g := before.Gates[i]
			now.Gates[i].ShedQueue -= g.ShedQueue
			now.Gates[i].ShedDeadline -= g.ShedDeadline
			now.Gates[i].ShedBreaker -= g.ShedBreaker
		}
	}
	for i := range now.Schedulers {
		if i < len(before.Schedulers) && before.Schedulers[i].Entry == now.Schedulers[i].Entry {
			now.Schedulers[i].Steps -= before.Schedulers[i].Steps
		}
	}
	return now
}

// serveMetrics turns service counters into the serve.* metrics: pool, gate
// and batcher numbers from the service behind the workload's class 0,
// scheduler numbers from the one behind its streaming class (the same
// service unless the workload mixes two models).
func serveMetrics(unary nimble.ServiceStats, unaryEntry string, stream nimble.ServiceStats, streamEntry string, out metrics) {
	inv := max(unary.Pool.Invocations, 1)
	out.set("serve.pool_wait_us", float64(unary.Pool.WaitTime.Nanoseconds())/1e3/float64(inv), "us", int(unary.Pool.Invocations))
	out.set("serve.quarantined", float64(unary.Pool.Quarantined), "count", 1)
	var shed int64
	for _, g := range unary.Gates {
		shed += g.ShedQueue + g.ShedDeadline + g.ShedBreaker
	}
	out.set("serve.gate_shed", float64(shed), "count", 1)

	// Requests per dispatch. An entry without a batcher dispatches every
	// request alone.
	rows, fill, flushes := 1.0, 0.0, 0
	for _, b := range unary.Batchers {
		if d := b.Batches + b.Singles; b.Entry == unaryEntry && d > 0 {
			rows = float64(b.Coalesced+b.Singles) / float64(d)
			fill = rows / float64(b.MaxBatch)
			flushes = int(d)
		}
	}
	out.set("serve.batch_mean_rows", rows, "count", flushes)
	out.set("serve.batch_fill", fill, "ratio", flushes)

	occ, step, steps := 0.0, 0.0, 0
	for _, s := range stream.Schedulers {
		if s.Entry == streamEntry {
			occ, step, steps = s.OccupancyEWMA, s.StepP50US, int(s.Steps)
		}
	}
	out.set("serve.sched_occupancy_ewma", occ, "count", steps)
	out.set("serve.sched_step_p50_us", step, "us", steps)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
