package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"nimble"
)

// env is what every workload run shares.
type env struct {
	ctx      context.Context
	root     string // the repository root (holds go.mod of module nimble)
	benchDir string // this directory
	outDir   string // benchmark/out: server binary, logs, traces, result files
	seed     int64
	window   time.Duration // measured window
	warm     time.Duration // untimed warm-up traffic before it
	setups   int           // fresh set-ups per run; setup_s is their median
	log      io.Writer     // progress, not results

	// Load sizing. The machine's processors are split in two: the server
	// subprocess is bound to one half, the HTTP generator to the other, so
	// that neither's threads delay the other's. In-process workloads have
	// no such boundary and use the whole machine.
	cpus       []int // every processor this process may use
	serverCPUs []int // nimble-serve runs here, with one worker per processor
	genCPUs    []int // the generator runs here while it drives a server
	conns      int   // the HTTP generator's keep-alive connections
	procs      int   // GOMAXPROCS of an in-process workload

	// Test-only knobs. corruptReference makes the oracle's references wrong
	// on purpose, to prove a wrong output fails the run; caseLimit keeps
	// only the first few generated cases so a smoke run is quick (0 = all).
	corruptReference bool
	caseLimit        int

	serverBin string
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// workers is the server's -workers and GOMAXPROCS, and the pool size of an
// in-process Registry or Service on the ladder.
func (e *env) workers() int { return len(e.serverCPUs) }

// place binds the process to the processors a kind of workload runs its
// generator on and sets GOMAXPROCS to match. The open-loop kinds get one P
// more than they have processors: their dispatcher sleeps in nanosleep(2),
// and a P whose thread is blocked in a raw system call is lost to the other
// goroutines until the runtime notices, which can take 10 ms.
func (e *env) place(kind workloadKind) error {
	cpus, procs := e.cpus, e.procs
	switch kind {
	case kindHTTP:
		cpus, procs = e.genCPUs, len(e.genCPUs)+1
	case kindSvc:
		procs++
	}
	runtime.GOMAXPROCS(procs)
	return pinProcess(cpus)
}

func (e *env) serverBinary() (string, error) {
	if e.serverBin == "" {
		t0 := time.Now()
		bin, err := buildServer(e.ctx, e.root, e.outDir)
		if err != nil {
			return "", err
		}
		e.logf("built nimble-serve in %.1fs", time.Since(t0).Seconds())
		e.serverBin = bin
	}
	return e.serverBin, nil
}

// metric is one reported number. N is how many samples stand behind it;
// the quartiles describe those samples where the value is a percentile of
// them.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1,omitempty"`
	Median float64 `json:"median,omitempty"`
	Q3     float64 `json:"q3,omitempty"`
	// Info marks a number that is printed and stored but is not in
	// BENCHMARK.json's lists, so nothing gates on it.
	Info bool `json:"info,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

func (m metrics) setDist(name string, v float64, unit string, d dist) {
	m[name] = metric{Value: v, Unit: unit, N: d.N, Q1: d.Q1, Median: d.Median, Q3: d.Q3}
}

func (m metrics) setInfo(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n, Info: true}
}

// workloadResult is one workload's outcome in one run.
type workloadResult struct {
	Name      string  `json:"name"`
	Trace     bool    `json:"trace"`
	Valid     bool    `json:"valid"`
	Invalid   string  `json:"invalid_reason,omitempty"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	FailShare float64 `json:"fail_share"`
	// FirstFailure is the first wrong output or error seen, for the report.
	FirstFailure string  `json:"first_failure,omitempty"`
	OfferedRPS   float64 `json:"offered_rps,omitempty"`
	Metrics      metrics `json:"metrics"`
}

func (r *workloadResult) fail(n int, err error) {
	r.Failed += n
	if r.FirstFailure == "" && err != nil {
		r.FirstFailure = err.Error()
	}
}

// target is a workload's serving stack, set up and ready: one caller per
// request class, a way to read a class's service counters, and a way to
// tear it down.
type target struct {
	callers []caller
	stats   func(class int) (nimble.ServiceStats, error)
	close   func()
	// firstOutputs counts the outputs set-up waited for; firstWrong is the
	// first of them that did not match its reference, if any.
	firstOutputs int
	firstWrong   error
}

// classData is one request class of a workload: its spec, its model and its
// cases with references filled in.
type classData struct {
	classSpec
	m     *model
	cases []*testCase
}

// streamClass is the index of the workload's streaming class, or 0 when it
// has none: the class ttft_* is measured on.
func streamClass(classes []classData) int {
	for i, cl := range classes {
		if cl.m.stream {
			return i
		}
	}
	return 0
}

// runWorkload runs one workload once. With trace off it measures the
// end-to-end metrics; with trace on it builds the layer ladder, runs half
// the window without spans and half with, and reports the per-layer
// metrics.
func runWorkload(e *env, w *workload, trace bool) (*workloadResult, error) {
	res := &workloadResult{Name: w.name, Trace: trace, OfferedRPS: w.offeredRPS(), Metrics: metrics{}}

	// Inputs and references. Each class draws from its own stream of the
	// seed so adding a class does not move another's inputs.
	var classes []classData
	for i, spec := range w.classes {
		m, err := newModel(spec.model)
		if err != nil {
			return nil, err
		}
		cases, err := makeCases(m, e.seed+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		if e.caseLimit > 0 {
			cases = cases[:min(e.caseLimit, len(cases))]
		}
		t0 := time.Now()
		if err := fillReferences(m, cases, e.benchDir); err != nil {
			return nil, err
		}
		if e.corruptReference {
			corrupt(cases)
		}
		e.logf("%s: %d %s cases, references in %.2fs", w.name, len(cases), m.name, time.Since(t0).Seconds())
		classes = append(classes, classData{spec, m, cases})
	}

	if err := e.place(w.kind); err != nil {
		return nil, err
	}
	if trace {
		if err := e.runTraced(w, classes, res); err != nil {
			return nil, err
		}
	} else if err := e.runEndToEnd(w, classes, res); err != nil {
		return nil, err
	}

	res.Succeeded = res.Attempted - res.Failed
	res.FailShare = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Valid = res.Invalid == ""
	return res, nil
}

// runEndToEnd is the untraced run: e.setups fresh set-ups, each timed from
// nothing to its first correct output. An open-loop workload then measures a
// fifth of the window on each of the five stacks, and a metric is the median
// of the five: a stretch of seconds in which the host ran slow (it does,
// by 10-20%), or a server process that came up badly placed, moves one
// segment and not the result. The closed loop lives in this process, where
// a fresh session changes nothing, so its last set-up carries the whole
// window.
func (e *env) runEndToEnd(w *workload, classes []classData, res *workloadResult) error {
	segments := e.setups
	if w.kind == kindLib {
		segments = 1
	}
	var setupS []float64
	var wins []*windowResult
	for i := 0; i < e.setups; i++ {
		tgt, took, err := setUp(e, w, classes, i)
		if err != nil {
			return err
		}
		setupS = append(setupS, took.Seconds())
		res.countSetUp(tgt)
		if e.setups-i <= segments {
			checkInputs(tgt, classes, res)
			win := measure(e, w, classes, tgt, e.window/time.Duration(segments), nil)
			res.count(win)
			wins = append(wins, win)
		}
		tgt.close()
	}
	res.Metrics.set("setup_s", median(setupS), "s", len(setupS))
	endToEndMetrics(e, w, classes, wins, res)
	return nil
}

// runTraced is the traced run: the compiler's own timings, the layer ladder
// over class 0's cases, then one set-up carrying half the window without
// spans and half with generator-side spans, and the serving stack's own
// counters.
func (e *env) runTraced(w *workload, classes []classData, res *workloadResult) error {
	rec := newRecorder()
	if err := compileMetrics(classes[0].m, res.Metrics); err != nil {
		return err
	}
	top := map[workloadKind]string{kindLib: "session", kindHTTP: "http", kindSvc: "registry"}[w.kind]
	attempted, failed, ladderStats, err := ladder(e, classes[0].m, classes[0].cases, top, rec, res.Metrics)
	if err == nil {
		err = e.place(w.kind) // the ladder moved the process for its HTTP rung
	}
	if err != nil {
		return err
	}
	res.Attempted += attempted
	if failed > 0 {
		res.fail(failed, fmt.Errorf("%d ladder requests returned an error or a wrong output", failed))
	}

	tgt, _, err := setUp(e, w, classes, 0)
	if err != nil {
		return err
	}
	defer tgt.close()
	res.countSetUp(tgt)
	checkInputs(tgt, classes, res)
	sc := streamClass(classes)
	// The serving stack's counters for class 0 and for the streaming class.
	// A lib workload has no serving stack of its own (tgt.stats is nil).
	readStats := func() (unary, stream nimble.ServiceStats, err error) {
		if tgt.stats == nil {
			return unary, stream, nil
		}
		if unary, err = tgt.stats(0); err == nil {
			stream, err = tgt.stats(sc)
		}
		return unary, stream, err
	}
	// The input check sent every case alone; the serve.* numbers should
	// describe the window's traffic, so they are counted from here.
	unaryBefore, streamBefore, err := readStats()
	if err != nil {
		return err
	}

	plain := measure(e, w, classes, tgt, e.window/2, nil)
	traced := measure(e, w, classes, tgt, e.window/2, rec)
	res.count(plain)
	res.count(traced)
	validity(w, []*windowResult{plain}, res)

	lat, _ := plain.series(0)
	tlat, _ := traced.series(0)
	res.Metrics.set("trace.overhead_share", summarize(tlat).Median/summarize(lat).Median-1, "ratio", len(tlat))
	res.Metrics.set("gen.late_p95_us", lateness([]*windowResult{plain}).P95, "us", len(plain.samples))
	slat, _ := plain.series(sc)
	if !classes[sc].m.stream {
		slat = nil // no streaming class: nothing completes as a stream
	}
	sd := summarize(slat)
	res.Metrics.setDist("stream.complete_p50_ms", sd.Median, "ms", sd)

	unary, stream, err := readStats()
	if err != nil {
		return err
	}
	unary, stream = statsSince(unary, unaryBefore), statsSince(stream, streamBefore)
	if tgt.stats == nil {
		// For a lib workload serve.* is the ladder's Service rung (one caller).
		unary, stream = ladderStats, ladderStats
	}
	serveMetrics(unary, classes[0].m.entry, stream, classes[sc].m.entry, res.Metrics)

	path := filepath.Join(e.outDir, "trace-"+w.name+".json")
	spans := rec.snapshot()
	if err := writeTrace(path, map[string]any{"workload": w.name, "seed": e.seed}, spans); err != nil {
		return err
	}
	e.logf("%s: %d spans in %s", w.name, len(spans), path)
	return nil
}

// checkInputs sends every distinct input once and checks the answer, before
// anything on this stack is timed. The pass also warms the stack.
func checkInputs(tgt *target, classes []classData, res *workloadResult) {
	for k, cl := range classes {
		for _, c := range cl.cases {
			r := tgt.callers[k](c)
			if r.err == nil {
				r.err = check(c, r.reply)
			}
			res.Attempted++
			if r.err != nil {
				res.fail(1, fmt.Errorf("%s input check: %w", cl.m.name, r.err))
			}
		}
	}
}

func (r *workloadResult) countSetUp(t *target) {
	r.Attempted += t.firstOutputs
	if t.firstWrong != nil {
		r.fail(t.firstOutputs, t.firstWrong)
	}
}

func (r *workloadResult) count(win *windowResult) {
	r.Attempted += len(win.samples)
	for _, s := range win.samples {
		if s.err != nil {
			r.fail(1, s.err)
		}
	}
}

// corrupt nudges every reference so that no correct output can match it.
func corrupt(cases []*testCase) {
	for _, c := range cases {
		if c.wantTokens != nil {
			c.wantTokens = append([]int64(nil), c.wantTokens...)
			c.wantTokens[0]++
			continue
		}
		c.wantTensor = c.wantTensor.Clone()
		c.wantTensor.SetAt(c.wantTensor.At(0, 0)+1, 0, 0)
	}
}

// setUp builds the workload's serving stack from nothing and returns it
// once it has produced its first correct output, with the time that took.
func setUp(e *env, w *workload, classes []classData, attempt int) (*target, time.Duration, error) {
	switch w.kind {
	case kindLib:
		m := classes[0].m
		t0 := time.Now()
		prog, err := m.compile()
		if err != nil {
			return nil, 0, err
		}
		sess := prog.NewSession()
		tgt := &target{close: func() { _ = sess.Close() }} // always nil
		tgt.callers = []caller{apiCaller(e.ctx, sess, m)}
		if err := tgt.firstOutput(0, classes[0]); err != nil {
			return nil, 0, err
		}
		return tgt, time.Since(t0), nil

	case kindHTTP:
		m := classes[0].m
		bin, err := e.serverBinary() // go build is not part of set-up
		if err != nil {
			return nil, 0, err
		}
		logPath := filepath.Join(e.outDir, fmt.Sprintf("server-%s-%d.log", w.name, attempt))
		srv, t0, err := startServer(e, bin, logPath, serverModels)
		if err != nil {
			return nil, 0, err
		}
		client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: e.conns, MaxIdleConnsPerHost: e.conns}}
		tgt := &target{
			callers: []caller{httpCaller(client, srv.base, m, nil)},
			stats:   func(int) (nimble.ServiceStats, error) { return srv.scrapeStats(m.name) },
			close: func() {
				client.CloseIdleConnections()
				srv.stop()
			},
		}
		if err := tgt.firstOutput(0, classes[0]); err != nil {
			tgt.close()
			return nil, 0, err
		}
		return tgt, time.Since(t0), nil

	case kindSvc:
		t0 := time.Now()
		reg := nimble.NewRegistry(nimble.WithServeDefaults(
			nimble.WithWorkers(e.procs), nimble.WithMaxQueue(burstMaxQueue)))
		tgt := &target{close: reg.Close}
		for k, cl := range classes {
			prog, err := cl.m.compile()
			if err == nil {
				_, err = reg.Deploy(cl.m.name, prog)
			}
			if err == nil {
				tgt.callers = append(tgt.callers, apiCaller(e.ctx, registryModel{reg, cl.m.name}, cl.m))
				err = tgt.firstOutput(k, cl)
			}
			if err != nil {
				reg.Close()
				return nil, 0, err
			}
		}
		took := time.Since(t0)
		tgt.stats = func(class int) (nimble.ServiceStats, error) {
			name := classes[class].m.name
			for _, ms := range reg.Models() {
				if ms.Name == name && len(ms.Versions) > 0 {
					return ms.Versions[0].Stats, nil
				}
			}
			return nimble.ServiceStats{}, fmt.Errorf("benchmark: registry lost model %q", name)
		}
		return tgt, took, nil
	}
	return nil, 0, fmt.Errorf("benchmark: workload %s has no kind", w.name)
}

// firstOutput sends the class's smallest case and waits for the answer:
// set-up is not over until the stack has produced one. The smallest case
// costs the same under every seed, so set-up time does not depend on which
// input the shuffle put first. A call that fails ends the run; an answer
// that is wrong is kept as a failure of the workload.
func (t *target) firstOutput(class int, cl classData) error {
	c := cl.cases[0]
	for _, other := range cl.cases {
		if other.tokens < c.tokens {
			c = other
		}
	}
	r := t.callers[class](c)
	if r.err != nil {
		return fmt.Errorf("benchmark: first %s request after set-up: %w", cl.m.name, r.err)
	}
	t.firstOutputs++
	if err := check(c, r.reply); err != nil && t.firstWrong == nil {
		t.firstWrong = fmt.Errorf("first %s output after set-up: %w", cl.m.name, err)
	}
	return nil
}

// windowResult is one measured window's samples.
type windowResult struct {
	samples []sample      // measured ones only (due after the warm-up)
	offered time.Duration // open loop: the span over which the window's requests were released
	busy    time.Duration // closed loop: time spent inside requests
	tokens  int           // closed loop: work units processed
}

// measure runs warm-up traffic, then the measured window, on the set-up
// target. rec, when non-nil, receives a span tree per request.
func measure(e *env, w *workload, classes []classData, tgt *target, window time.Duration, rec *recorder) *windowResult {
	out := &windowResult{}
	if w.kind == kindLib {
		// Whole passes over the case list until the window is used up, so
		// every input weighs the same. The warm-up was the input check.
		cases := classes[0].cases
		t0 := time.Now()
		for time.Since(t0) < window && e.ctx.Err() == nil {
			for i, c := range cases {
				r := tgt.callers[0](c)
				if r.err == nil {
					r.err = check(c, r.reply)
				}
				// A closed loop has no schedule: the request is due when it starts.
				out.samples = append(out.samples, sample{
					arrival: arrival{caseIdx: i, due: r.start.Sub(t0)},
					start:   r.start.Sub(t0), first: r.first.Sub(t0), end: r.end.Sub(t0), err: r.err,
				})
				out.busy += r.end.Sub(r.start)
				out.tokens += c.tokens
				rec.add(0, len(out.samples), "session.invoke", r.start, r.end)
			}
		}
		return out
	}

	var sched []arrival
	workers, spin := 0, burstSpin
	if w.kind == kindHTTP {
		sched = poissonSchedule(e.seed, w.rate, e.warm, window, len(classes[0].cases))
		workers, spin = e.conns, 0
	} else {
		perClass, ncases := make([]int, len(classes)), make([]int, len(classes))
		for i, cl := range classes {
			perClass[i], ncases[i] = cl.perBurst, len(cl.cases)
		}
		sched = burstSchedule(e.seed, burstPeriod, burstStagger, e.warm, window, perClass, ncases)
	}
	all := runOpenLoop(e.ctx, sched, workers, spin, func(a arrival) (callResult, *testCase) {
		c := classes[a.class].cases[a.caseIdx]
		return tgt.callers[a.class](c), c
	}, rec)
	// The offered span is measured on class 0's releases, first to last, and
	// stretched by one gap, since n instants bound n-1 gaps (requests of one
	// burst share their instant). Dividing goodput by it rather than by the
	// time to the last completion keeps one straggler at the end of the
	// window from moving it.
	var first, last *sample
	instants := 0
	for i := range all {
		s := &all[i]
		if s.due < e.warm {
			continue
		}
		out.samples = append(out.samples, *s)
		if s.class != 0 {
			continue
		}
		if last == nil || s.due != last.due {
			instants++
		}
		if first == nil {
			first = s
		}
		last = s
	}
	if instants > 1 {
		span := (last.due + last.late) - (first.due + first.late)
		out.offered = span * time.Duration(instants) / time.Duration(instants-1)
	}
	return out
}

// series extracts one class's latencies in ms: due to complete, and due to
// first output. Failed requests have no latency; they count against
// goodput and fail_share instead.
func (wr *windowResult) series(class int) (latency, ttft []float64) {
	for _, s := range wr.samples {
		if s.class != class || s.err != nil {
			continue
		}
		latency = append(latency, ms(s.end-s.due))
		ttft = append(ttft, ms(s.first-s.due))
	}
	return latency, ttft
}

// lateness is how long after its due time the generator released each
// request, in us, over all the windows. A closed loop is never late.
func lateness(wins []*windowResult) dist {
	var late []float64
	for _, wr := range wins {
		for _, s := range wr.samples {
			late = append(late, float64(s.late.Nanoseconds())/1e3)
		}
	}
	return summarize(late)
}

// validity marks an open-loop run invalid when the generator fell behind
// its own schedule, or sent too few requests to say whether it did.
func validity(w *workload, wins []*windowResult, res *workloadResult) {
	if w.kind == kindLib {
		return // a closed loop has no schedule to fall behind
	}
	late := lateness(wins)
	switch {
	case !late.P95OK:
		res.Invalid = fmt.Sprintf("only %d samples: too few for the lateness p95", late.N)
	case late.P95 > 1000:
		res.Invalid = fmt.Sprintf("gen.late_p95_us = %.0f > 1000: the generator could not keep its schedule", late.P95)
	}
}

// endToEndMetrics turns the untraced windows into the end-to-end metrics.
// latency_* is class 0's completion time. ttft_* is the time to first
// output of the streaming class if the workload has one, else of class 0
// (where it repeats latency_* in-process and is the time to the response
// headers over HTTP).
//
// With several windows (one per fresh stack) a p50 is the median of the
// windows' p50s. The p95s are taken over all windows pooled and are
// information only: on the reference host they move by 25-50% from run to
// run on three of the five workloads, so no bound the contract allows would
// hold them.
func endToEndMetrics(e *env, w *workload, classes []classData, wins []*windowResult, res *workloadResult) {
	validity(w, wins, res)
	sc := streamClass(classes)
	m := res.Metrics

	var lat, ttft, slat []float64 // pooled over the windows
	var latP50, ttftP50 []float64 // one per window
	for _, wr := range wins {
		l, _ := wr.series(0)
		s, t := wr.series(sc)
		lat, ttft, slat = append(lat, l...), append(ttft, t...), append(slat, s...)
		ld, td := summarize(l), summarize(t)
		if ld.N < 2*minTail+1 || td.N < 2*minTail+1 {
			res.Invalid = fmt.Sprintf("a window has only %d latency and %d ttft samples: too few for a p50", ld.N, td.N)
		}
		latP50, ttftP50 = append(latP50, ld.Median), append(ttftP50, td.Median)
	}
	if len(wins) > 1 {
		e.logf("%s: per-stack latency p50 %.3f ms, ttft p50 %.3f ms", w.name, latP50, ttftP50)
	}
	ld, td := summarize(lat), summarize(ttft)
	m.setDist("latency_p50_ms", median(latP50), "ms", ld)
	m.setDist("ttft_p50_ms", median(ttftP50), "ms", td)
	if ld.P95OK {
		m.setInfo("latency_p95_ms", ld.P95, "ms", ld.N)
	}
	if td.P95OK {
		m.setInfo("ttft_p95_ms", td.P95, "ms", td.N)
	}
	if ld.P99OK {
		m.setInfo("latency_p99_ms", ld.P99, "ms", ld.N)
	}
	if td.P99OK {
		m.setInfo("ttft_p99_ms", td.P99, "ms", td.N)
	}

	var goodput float64
	attempted := 0
	if w.kind == kindLib {
		// One caller, no limits: throughput of the median pass, counting the
		// time spent inside requests (the benchmark's own output checking
		// between them is not the system's).
		wr := wins[0]
		n := len(classes[0].cases)
		var perPass []float64
		for p := 0; (p+1)*n <= len(wr.samples); p++ {
			var busy time.Duration
			ok := 0
			for _, s := range wr.samples[p*n : (p+1)*n] {
				busy += s.end - s.start
				if s.err == nil {
					ok++
				}
			}
			perPass = append(perPass, float64(ok)/busy.Seconds())
		}
		goodput = median(perPass)
		attempted = len(wr.samples)
		m.setInfo("us_per_token", float64(wr.busy.Nanoseconds())/1e3/float64(max(wr.tokens, 1)), "us", wr.tokens)
	} else {
		good := 0
		var offered time.Duration
		for _, wr := range wins {
			offered += wr.offered
			attempted += len(wr.samples)
			for _, s := range wr.samples {
				cl := classes[s.class]
				switch {
				case s.err != nil:
				case cl.latencyLimit > 0 && s.end-s.due > cl.latencyLimit:
				case cl.ttftLimit > 0 && s.first-s.due > cl.ttftLimit:
				default:
					good++
				}
			}
		}
		goodput = float64(good) / offered.Seconds()
	}
	m.set("goodput_rps", goodput, "1/s", attempted)

	m.setInfo("gen.late_p95_us", lateness(wins).P95, "us", attempted)
	if classes[sc].m.stream {
		m.setInfo("stream_p50_ms", summarize(slat).Median, "ms", len(slat))
	}
}
