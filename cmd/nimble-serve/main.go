// Command nimble-serve exposes compiled models over HTTP through the
// public nimble API: a multi-model Registry of versioned Programs (each
// serving through one run queue over its VM sessions, coalescing queued
// requests to row-separable entries) and handlers built entirely on
// Program.Entrypoints() — no per-model adapters. Any entry of any model is
// invocable; argument decoding is driven by the entry's introspected
// signature.
//
//	nimble-serve -model mlp,bert,decoder -workers 8
//	curl -s localhost:8080/models
//	curl -s -X POST localhost:8080/invoke -d '{"model":"mlp","args":[{"dtype":"float32","shape":[1,64],"data":[...]}]}'
//	curl -s -X POST localhost:8080/admin/deploy -d '{"model":"mlp","canary":10}'
//	curl -s localhost:8080/stats
//
// Every model is addressable as "name" (the routed serving mix), as
// "name@latest" (the newest live version), or pinned as "name@vN". A
// request's "model" field defaults to the first -model entry, so the
// single-model invocation shape is unchanged from earlier versions.
//
// Endpoints:
//
//	POST /invoke  {"model":"bert","entry":"main","args":[value...]}
//	              -> {"output":value,"latency_us":...}
//	              A value is a tensor {"dtype","shape","data"} or an ADT
//	              {"adt":{"ctor":"Cons"|"tag":1,"fields":[value...]}}.
//	              {"seq":[tensor,...]} is accepted for entries whose sole
//	              parameter is a cons-list ADT (e.g. the LSTM).
//	              Optional scheduling hints: "priority" selects the lane
//	              (0 = most urgent, see -lanes), "deadline_budget_ms" sheds
//	              the request up front when the backlog makes it unmeetable.
//	              "route_key" pins the request's canary-split decision, so
//	              one user's session never flaps between weight versions.
//	POST /stream  same body; responds with Server-Sent Events, one flushed
//	              "token" event per value the entry emits through
//	              stream.emit (the decoder's per-token output), then a
//	              terminal "done" (with the final result) or "error" event.
//	              Open failures are plain status responses exactly like
//	              /invoke; mid-stream failures arrive as the "error" event.
//	POST /admin/deploy   {"model":"mlp","exe":"path","canary":10} builds (or
//	              loads with "exe") a fresh build of the named model and
//	              hot-swaps it in with zero downtime — or starts a canary
//	              rollout at the given percentage. Returns the new version.
//	POST /admin/promote  {"model":"mlp"} makes the canary stable; the old
//	              stable drains. 409 when no rollout is in progress.
//	POST /admin/rollback {"model":"mlp"} drops the canary; stable untouched.
//	GET  /models  -> every model: live versions (stable/canary, traffic
//	              percent, in-flight) + entry signatures (types, Any dims,
//	              ADT constructors, row-separability)
//	GET  /healthz -> {"ok":true,...}; 503 + "ok":false while any version of
//	              any model has an open circuit breaker (degraded)
//	GET  /stats   -> per model-version pool + coalescing + admission-gate +
//	              scheduler counters, plus the shared storage tier
//	GET  /metrics -> the same counters in Prometheus text exposition format,
//	              labeled {model, version, entry}
//
// Errors map onto status codes by family (docs/operations.md):
//
//	400 malformed body / malformed model reference / ErrBadInput / ErrBadArity
//	404 ErrUnknownEntry / ErrUnknownModel (unknown name or pinned version)
//	409 ErrNoCanary (promote/rollback with no rollout in progress)
//	413 body over -max-body
//	429 ErrOverloaded (queue full, deadline unmeetable, breaker open) with
//	    a Retry-After header from the admission controller's estimate
//	500 ErrInternal (isolated VM/kernel panic; session quarantined)
//	503 ErrClosed (shutting down)   504 ErrCanceled (deadline/cancel)
//
// SIGINT/SIGTERM shut the server down gracefully: listeners stop, then the
// Registry drains every live version — in-flight AND already-admitted
// queued requests get -shutdown-timeout to complete; stragglers are
// rejected with 503, never left hanging.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nimble"
	"nimble/cmd/internal/cli"
	"nimble/tensor"
)

type tensorJSON struct {
	DType string    `json:"dtype"`
	Shape []int     `json:"shape"`
	Data  []float64 `json:"data"`
}

// valueJSON is the wire form of a nimble.Value: exactly one of the tensor
// fields (DType/Shape/Data) or ADT / Tuple is set.
type valueJSON struct {
	DType string      `json:"dtype,omitempty"`
	Shape []int       `json:"shape,omitempty"`
	Data  []float64   `json:"data,omitempty"`
	ADT   *adtJSON    `json:"adt,omitempty"`
	Tuple []valueJSON `json:"tuple,omitempty"`
}

type adtJSON struct {
	// Ctor names the constructor (resolved against the parameter's ADT
	// signature); Tag may be given directly instead.
	Ctor   string      `json:"ctor,omitempty"`
	Tag    *int        `json:"tag,omitempty"`
	Fields []valueJSON `json:"fields,omitempty"`
}

// maxTensorElems bounds a decoded tensor (64M elements ≈ 256MB float32):
// a shape like [1<<30, 1<<30, 1<<30] must be rejected here, not overflow
// the element-count product into something len(Data) happens to equal.
const maxTensorElems = 1 << 26

func toTensor(tj tensorJSON) (*tensor.Tensor, error) {
	n := 1
	for _, d := range tj.Shape {
		if d < 0 {
			return nil, fmt.Errorf("negative dim %d", d)
		}
		if d > 0 && n > maxTensorElems/d {
			return nil, fmt.Errorf("shape %v exceeds %d elements", tj.Shape, maxTensorElems)
		}
		n *= d
	}
	if len(tj.Data) != n {
		return nil, fmt.Errorf("shape %v wants %d elements, got %d", tj.Shape, n, len(tj.Data))
	}
	switch tj.DType {
	case "", "float32":
		data := make([]float32, n)
		for i, v := range tj.Data {
			data[i] = float32(v)
		}
		return tensor.FromF32(data, tj.Shape...), nil
	case "int64":
		data := make([]int64, n)
		for i, v := range tj.Data {
			data[i] = int64(v)
		}
		return tensor.FromI64(data, tj.Shape...), nil
	}
	return nil, fmt.Errorf("unsupported dtype %q (float32 and int64 are served)", tj.DType)
}

func fromTensor(t *tensor.Tensor) tensorJSON {
	return tensorJSON{DType: t.DType().String(), Shape: t.Shape(), Data: t.AsF64()}
}

// toValue decodes one wire value against its signature parameter type.
// It checks only what decoding needs; whether the value fits the parameter
// is the Program's argument check, which answers ErrBadInput (400).
func toValue(vj valueJSON, p nimble.TypeInfo) (nimble.Value, error) {
	switch {
	case vj.ADT != nil:
		if p.ADT == nil {
			return nimble.Value{}, fmt.Errorf("parameter is %s, not an ADT", p.Kind)
		}
		return toADTValue(*vj.ADT, p.ADT)
	case vj.Tuple != nil:
		if len(vj.Tuple) != len(p.Fields) {
			return nimble.Value{}, fmt.Errorf("tuple has %d fields, want %d", len(vj.Tuple), len(p.Fields))
		}
		fields := make([]nimble.Value, len(vj.Tuple))
		for i, f := range vj.Tuple {
			v, err := toValue(f, p.Fields[i])
			if err != nil {
				return nimble.Value{}, fmt.Errorf("tuple[%d]: %w", i, err)
			}
			fields[i] = v
		}
		return nimble.TupleValue(fields...), nil
	default:
		t, err := toTensor(tensorJSON{DType: vj.DType, Shape: vj.Shape, Data: vj.Data})
		if err != nil {
			return nimble.Value{}, err
		}
		return nimble.TensorValue(t), nil
	}
}

// toADTValue decodes an ADT wire value, resolving constructors by name or
// tag against the signature. Nested ADT fields whose signature carries
// name-only info (recursive types) reuse the root description.
func toADTValue(aj adtJSON, info *nimble.ADTInfo) (nimble.Value, error) {
	var ctor *nimble.CtorInfo
	for i := range info.Constructors {
		c := &info.Constructors[i]
		if (aj.Tag != nil && c.Tag == *aj.Tag) || (aj.Ctor != "" && c.Name == aj.Ctor) {
			ctor = c
			break
		}
	}
	if ctor == nil {
		return nimble.Value{}, fmt.Errorf("ADT %s has no constructor %q/tag %v", info.Name, aj.Ctor, aj.Tag)
	}
	if len(aj.Fields) != len(ctor.Fields) {
		return nimble.Value{}, fmt.Errorf("%s.%s takes %d fields, got %d", info.Name, ctor.Name, len(ctor.Fields), len(aj.Fields))
	}
	fields := make([]nimble.Value, len(aj.Fields))
	for i, f := range aj.Fields {
		ft := ctor.Fields[i]
		if ft.Kind == nimble.KindADTType && ft.ADT != nil && ft.ADT.Name == info.Name && ft.ADT.Constructors == nil {
			ft.ADT = info // recursive reference: reuse the full description
		}
		v, err := toValue(f, ft)
		if err != nil {
			return nimble.Value{}, fmt.Errorf("%s.%s field %d: %w", info.Name, ctor.Name, i, err)
		}
		fields[i] = v
	}
	return nimble.ADTValue(ctor.Tag, fields...), nil
}

func fromValue(v nimble.Value) valueJSON {
	if t, ok := v.Tensor(); ok {
		tj := fromTensor(t)
		return valueJSON{DType: tj.DType, Shape: tj.Shape, Data: tj.Data}
	}
	fields := make([]valueJSON, len(v.Fields()))
	for i, f := range v.Fields() {
		fields[i] = fromValue(f)
	}
	if v.Kind() == nimble.KindTuple {
		return valueJSON{Tuple: fields}
	}
	tag := v.Tag()
	return valueJSON{ADT: &adtJSON{Tag: &tag, Fields: fields}}
}

// listParam recognizes cons-list ADT parameters (the {"seq": ...} sugar):
// exactly two constructors, one nullary (nil) and one binary whose fields
// are a tensor and the list itself. Returns the nil/cons info.
func listParam(p nimble.TypeInfo) (nilCtor, consCtor *nimble.CtorInfo, elem nimble.TypeInfo, ok bool) {
	if p.Kind != nimble.KindADTType || p.ADT == nil || len(p.ADT.Constructors) != 2 {
		return nil, nil, nimble.TypeInfo{}, false
	}
	for i := range p.ADT.Constructors {
		c := &p.ADT.Constructors[i]
		switch len(c.Fields) {
		case 0:
			nilCtor = c
		case 2:
			if c.Fields[0].Kind == nimble.KindTensorType &&
				c.Fields[1].Kind == nimble.KindADTType &&
				c.Fields[1].ADT != nil && c.Fields[1].ADT.Name == p.ADT.Name {
				consCtor = c
				elem = c.Fields[0]
			}
		}
	}
	ok = nilCtor != nil && consCtor != nil
	return nilCtor, consCtor, elem, ok
}

// seqToList folds step tensors into the entry's cons-list value, reshaping
// each step to the constructor's declared element shape when the element
// counts agree (so a flat [300] step feeds a Tensor[(1, 300)] field).
func seqToList(seq []tensorJSON, p nimble.TypeInfo) (nimble.Value, error) {
	nilCtor, consCtor, elem, ok := listParam(p)
	if !ok {
		return nimble.Value{}, fmt.Errorf(`this entry does not take a list; use "args"`)
	}
	want := 1
	static := true
	for _, d := range elem.Shape {
		if d == nimble.DimAny {
			static = false
			break
		}
		want *= d
	}
	steps := make([]*tensor.Tensor, len(seq))
	for i, tj := range seq {
		t, err := toTensor(tj)
		if err != nil {
			return nimble.Value{}, fmt.Errorf("seq[%d]: %w", i, err)
		}
		if static {
			if t.NumElements() != want {
				return nimble.Value{}, fmt.Errorf("seq[%d]: element wants %d values (%v), got %d",
					i, want, elem.Shape, t.NumElements())
			}
			if t, err = t.Reshape(elem.Shape...); err != nil {
				return nimble.Value{}, fmt.Errorf("seq[%d]: %w", i, err)
			}
		}
		steps[i] = t
	}
	v := nimble.ADTValue(nilCtor.Tag)
	for i := len(steps) - 1; i >= 0; i-- {
		v = nimble.ADTValue(consCtor.Tag, nimble.TensorValue(steps[i]), v)
	}
	return v, nil
}

type invokeRequest struct {
	// Model addresses the serving target: "name", "name@latest", or a
	// pinned "name@vN". Empty means the server's default (first -model).
	Model string      `json:"model,omitempty"`
	Entry string      `json:"entry"`
	Args  []valueJSON `json:"args"`
	// Seq is list-entry sugar: step tensors packed into the entry's
	// cons-list parameter server-side.
	Seq []tensorJSON `json:"seq"`
	// Priority selects the request's scheduling lane (0 = most urgent,
	// the default; values past -lanes-1 clamp). Maps to nimble.WithPriority.
	Priority *int `json:"priority,omitempty"`
	// DeadlineBudgetMS gives the request this many milliseconds from
	// arrival to finish, tightening any client-side deadline; the admission
	// gate and scheduler shed it up front when the backlog already makes
	// the budget unmeetable. Maps to nimble.WithDeadlineBudget.
	DeadlineBudgetMS float64 `json:"deadline_budget_ms,omitempty"`
	// RouteKey pins the request's canary-split decision: within one canary
	// epoch every request carrying the same key routes to the same weight
	// version. Maps to nimble.WithRouteKey.
	RouteKey string `json:"route_key,omitempty"`
}

type invokeResponse struct {
	Output    valueJSON `json:"output"`
	LatencyUS float64   `json:"latency_us"`
}

type server struct {
	reg *nimble.Registry
	// defaultModel is the first -model entry: what an unaddressed request
	// (no "model" field) routes to.
	defaultModel string
	maxBody      int64
	start        time.Time
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	model := flag.String("model", "mlp", "comma-separated models to serve (each: "+cli.Names()+"); the first is the default target")
	exe := cli.ExeFlag("")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "VM sessions per model version")
	maxBatch := flag.Int("max-batch", 16, "most requests one coalesced dispatch serves (1 = no coalescing)")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline (0 = none)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "drain window for in-flight and queued requests on SIGINT/SIGTERM")
	maxQueue := flag.Int("max-queue", 0, "per-entry admission queue bound (0 = 4×workers, negative = unbounded)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive internal faults opening an entry's circuit breaker (0 = default 8, negative = disabled)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long an open breaker sheds before probing (0 = default 1s)")
	lanes := flag.Int("lanes", 1, "priority lanes requests may select with the \"priority\" body field (lane 0 served first)")
	schedWindow := flag.Int("sched-window", 0, "streams one session interleaves under the continuous-batching scheduler (0 = default 8)")
	maxBody := flag.Int64("max-body", 32<<20, "request body size cap in bytes")
	flag.Parse()

	names := strings.Split(*model, ",")
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
	}
	if len(names) > 1 && *exe != "" {
		log.Fatal("-exe applies to a single -model; deploy additional builds via /admin/deploy")
	}
	opts := []nimble.ServiceOption{
		nimble.WithWorkers(*workers),
		nimble.WithMaxBatch(*maxBatch),
		nimble.WithMaxQueue(*maxQueue),
		nimble.WithRequestTimeout(*reqTimeout),
		nimble.WithBreaker(*breakerThreshold, *breakerCooldown),
		nimble.WithPriorityLanes(*lanes),
		nimble.WithSchedulerWindow(*schedWindow),
	}
	reg := nimble.NewRegistry(
		nimble.WithServeDefaults(opts...),
		nimble.WithDrainTimeout(*shutdownTimeout),
	)
	for _, name := range names {
		m, err := cli.BuildOrLoad(name, *exe)
		if err != nil {
			log.Fatal(err)
		}
		ver, err := reg.Deploy(name, m.Program)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving %s@%s: %s", name, ver, m.Describe)
		for _, sig := range m.Program.Entrypoints() {
			mode := "per-request"
			if sig.RowSeparable && *maxBatch > 1 {
				mode = "coalesced"
			}
			log.Printf("  entry %s  [%s]", sig, mode)
		}
	}
	s := &server{reg: reg, defaultModel: names[0], maxBody: *maxBody, start: time.Now()}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /invoke", s.handleInvoke)
	mux.HandleFunc("POST /stream", s.handleStream)
	mux.HandleFunc("POST /admin/deploy", s.handleDeploy)
	mux.HandleFunc("POST /admin/promote", s.handlePromote)
	mux.HandleFunc("POST /admin/rollback", s.handleRollback)
	mux.HandleFunc("GET /models", s.handleModels)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	srv := &http.Server{Addr: *addr, Handler: mux}

	// Graceful shutdown: stop accepting, give in-flight requests the drain
	// window, then close the service (run queue drains, pool closes).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		log.Printf("nimble-serve: models=%s workers=%d listening on %s", strings.Join(names, ","), *workers, *addr)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("nimble-serve: signal received, draining (timeout %v)", *shutdownTimeout)
	shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	// One drain window covers both layers: the HTTP server stops accepting
	// and waits for handlers, then the Registry drains every live version
	// (queued and running requests, open streams), rejecting stragglers
	// with ErrClosed when the window expires instead of hanging.
	if err := srv.Shutdown(shCtx); err != nil {
		log.Printf("nimble-serve: http shutdown: %v", err)
	}
	var invocations, errCount, quarantined int64
	models := reg.Models()
	if err := reg.Shutdown(shCtx); err != nil {
		log.Printf("nimble-serve: registry drain: %v", err)
	}
	for _, ms := range models {
		for _, vs := range ms.Versions {
			invocations += vs.Stats.Pool.Invocations
			errCount += vs.Stats.Pool.Errors
			quarantined += vs.Stats.Pool.Quarantined
		}
	}
	log.Printf("nimble-serve: drained; served %d invocations (%d errors, %d quarantined)", invocations, errCount, quarantined)
}

// decodeInvoke reads and validates an invoke/stream request body against
// the addressed model's entry signature, writing the error response itself
// on failure (ok == false means the response is already sent). The
// returned options carry the body's scheduling hints (priority lane,
// deadline budget, canary route key); model is the reference to route the
// invocation with.
func (s *server) decodeInvoke(w http.ResponseWriter, r *http.Request) (model, entry string, args []nimble.Value, opts []nimble.InvokeOption, ok bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req invokeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooBig.Limit))
			return "", "", nil, nil, false
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return "", "", nil, nil, false
	}
	if req.Model == "" {
		req.Model = s.defaultModel
	}
	if req.Entry == "" {
		req.Entry = "main"
	}
	// Resolve the reference now for signature-driven decoding: a malformed
	// reference is a 400, an unknown model or pinned version a 404 —
	// decided before any work is admitted.
	prog, err := s.reg.Program(req.Model)
	if err != nil {
		httpError(w, invokeStatus(err), err)
		return "", "", nil, nil, false
	}
	sig, err := prog.Entry(req.Entry)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return "", "", nil, nil, false
	}
	if req.Priority != nil {
		if *req.Priority < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("priority %d is negative; 0 is the most urgent lane", *req.Priority))
			return "", "", nil, nil, false
		}
		opts = append(opts, nimble.WithPriority(*req.Priority))
	}
	if req.DeadlineBudgetMS != 0 {
		if req.DeadlineBudgetMS < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("deadline_budget_ms %v is negative", req.DeadlineBudgetMS))
			return "", "", nil, nil, false
		}
		opts = append(opts, nimble.WithDeadlineBudget(time.Duration(req.DeadlineBudgetMS*float64(time.Millisecond))))
	}
	if req.RouteKey != "" {
		opts = append(opts, nimble.WithRouteKey(req.RouteKey))
	}
	switch {
	case req.Seq != nil:
		if len(sig.Params) != 1 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("%s takes %d args; \"seq\" needs a single list parameter", sig.Name, len(sig.Params)))
			return "", "", nil, nil, false
		}
		v, err := seqToList(req.Seq, sig.Params[0])
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return "", "", nil, nil, false
		}
		args = []nimble.Value{v}
	default:
		if len(req.Args) != len(sig.Params) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("%s takes %d args, got %d", sig.Name, len(sig.Params), len(req.Args)))
			return "", "", nil, nil, false
		}
		args = make([]nimble.Value, len(req.Args))
		for i, a := range req.Args {
			v, err := toValue(a, sig.Params[i])
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("arg %d: %w", i, err))
				return "", "", nil, nil, false
			}
			args[i] = v
		}
	}
	return req.Model, req.Entry, args, opts, true
}

// writeInvokeError maps err onto its status code (with the Retry-After
// header for the overload family) and writes the JSON error body.
func writeInvokeError(w http.ResponseWriter, err error) {
	code := invokeStatus(err)
	if code == http.StatusTooManyRequests {
		// The admission controller's estimate becomes Retry-After,
		// rounded up so a sub-second hint is never 0.
		if d, ok := nimble.RetryAfter(err); ok {
			secs := int(math.Ceil(d.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
	}
	httpError(w, code, err)
}

func (s *server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	// Execution panics are recovered and typed inside the Service
	// (ErrInternal + session quarantine); this recover is only the decoder
	// backstop so a malformed request can never drop the connection.
	defer func() {
		if rec := recover(); rec != nil {
			httpError(w, http.StatusInternalServerError, fmt.Errorf("handler panic: %v", rec))
		}
	}()
	model, entry, args, opts, ok := s.decodeInvoke(w, r)
	if !ok {
		return
	}

	// The Service applies -request-timeout itself (WithRequestTimeout) when
	// the caller's context carries no deadline; r.Context() still propagates
	// client disconnects.
	start := time.Now()
	out, err := s.reg.InvokeOpts(r.Context(), model, entry, args, opts...)
	if err != nil {
		writeInvokeError(w, err)
		return
	}
	writeJSON(w, invokeResponse{
		Output:    fromValue(out),
		LatencyUS: float64(time.Since(start).Microseconds()),
	})
}

// handleStream is the SSE form of /invoke: the same request body, but the
// response is a text/event-stream delivering each value the entry emits
// through stream.emit (a decoder's tokens) as its own flushed event.
//
// The error contract splits at the moment the stream opens. Everything
// that can be decided synchronously — malformed body, unknown entry, bad
// arguments, admission shedding (429 + Retry-After), service closed —
// happens before any header is written and maps onto exactly the /invoke
// status codes. Once the open succeeds the response is committed as a 200
// event stream, and a mid-stream failure (isolated VM panic, client
// deadline, drain cutoff) arrives as a terminal "error" event carrying the
// status code it would have had, so clients always learn the outcome
// in-band. A successful stream ends with a "done" event carrying the
// entry's final result.
//
//	event: token   data: {"dtype":"int64","shape":[1],"data":[42]}
//	event: done    data: {"tokens":32,"latency_us":...,"output":{...}}
//	event: error   data: {"error":"...","status":500}
func (s *server) handleStream(w http.ResponseWriter, r *http.Request) {
	committed := false
	defer func() {
		if rec := recover(); rec != nil {
			if !committed {
				httpError(w, http.StatusInternalServerError, fmt.Errorf("handler panic: %v", rec))
			}
			// Mid-stream the connection is already an event stream; dropping
			// it is the only honest signal left.
		}
	}()
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		httpError(w, http.StatusNotImplemented, fmt.Errorf("streaming needs a flushable connection"))
		return
	}
	model, entry, args, opts, ok := s.decodeInvoke(w, r)
	if !ok {
		return
	}
	// Synchronous open: validation, gate admission, and queue submission
	// all resolve here, while a plain status response is still possible.
	st, err := s.reg.InvokeStreamOpts(r.Context(), model, entry, args, opts...)
	if err != nil {
		writeInvokeError(w, err)
		return
	}
	defer st.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	committed = true
	fl.Flush()

	start := time.Now()
	tokens := 0
	for st.Next() {
		writeSSE(w, "token", fromValue(st.Value()))
		fl.Flush()
		tokens++
	}
	if err := st.Err(); err != nil {
		// Too late for a status line; the terminal error event carries the
		// status the open path would have used.
		writeSSE(w, "error", map[string]any{"error": err.Error(), "status": invokeStatus(err)})
		fl.Flush()
		return
	}
	res, _ := st.Result()
	writeSSE(w, "done", map[string]any{
		"tokens":     tokens,
		"latency_us": float64(time.Since(start).Microseconds()),
		"output":     fromValue(res),
	})
	fl.Flush()
}

// writeSSE frames one server-sent event. The data payload is JSON, which
// never contains a raw newline, so a single data: line is always valid SSE.
func writeSSE(w http.ResponseWriter, event string, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		blob = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, blob)
}

// invokeStatus maps the public error families onto HTTP status codes —
// the contract documented in docs/operations.md. Order matters only for
// readability; the families are disjoint except ErrBadArity ⊂ ErrBadInput.
func invokeStatus(err error) int {
	switch {
	case errors.Is(err, nimble.ErrBadInput), errors.Is(err, nimble.ErrBadArity):
		// Validation errors match both sentinels; either way it is the
		// client's request, not the server's state.
		return http.StatusBadRequest
	case errors.Is(err, nimble.ErrUnknownEntry), errors.Is(err, nimble.ErrUnknownModel):
		// Unknown entry, unknown model name, or a pinned version that is
		// not (or no longer) deployed.
		return http.StatusNotFound
	case errors.Is(err, nimble.ErrNoCanary):
		// Promote/rollback against a model with no rollout in progress.
		return http.StatusConflict
	case errors.Is(err, nimble.ErrOverloaded):
		// Queue full, deadline unmeetable, or circuit breaker open.
		return http.StatusTooManyRequests
	case errors.Is(err, nimble.ErrCanceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, nimble.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		// ErrInternal (quarantined panic) and anything unclassified.
		return http.StatusInternalServerError
	}
}

func (s *server) handleModels(w http.ResponseWriter, _ *http.Request) {
	type versionJSON struct {
		Version  string `json:"version"`
		State    string `json:"state"`
		Percent  int    `json:"percent,omitempty"`
		InFlight int64  `json:"in_flight"`
	}
	type modelJSON struct {
		Name        string        `json:"name"`
		Versions    []versionJSON `json:"versions"`
		Entrypoints any           `json:"entrypoints"`
	}
	var out []modelJSON
	for _, ms := range s.reg.Models() {
		mj := modelJSON{Name: ms.Name}
		for _, vs := range ms.Versions {
			mj.Versions = append(mj.Versions, versionJSON{
				Version:  vs.Version,
				State:    string(vs.State),
				Percent:  vs.Percent,
				InFlight: vs.InFlight,
			})
		}
		if p, err := s.reg.Program(ms.Name); err == nil {
			mj.Entrypoints = p.Entrypoints()
		}
		out = append(out, mj)
	}
	writeJSON(w, map[string]any{"default_model": s.defaultModel, "models": out})
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// Degraded (some entry's circuit breaker open on any live version of
	// any model) answers 503 so load balancers stop routing here before
	// users notice; the body still says which model/version/entries are
	// sick.
	type versionHealth struct {
		Model    string `json:"model"`
		Version  string `json:"version"`
		State    string `json:"state"`
		Degraded bool   `json:"degraded"`
		Entries  any    `json:"entries"`
	}
	degraded := false
	var versions []versionHealth
	for _, ms := range s.reg.Models() {
		for _, vs := range ms.Versions {
			if vs.Health.Degraded {
				degraded = true
			}
			versions = append(versions, versionHealth{
				Model:    ms.Name,
				Version:  vs.Version,
				State:    string(vs.State),
				Degraded: vs.Health.Degraded,
				Entries:  vs.Health.Entries,
			})
		}
	}
	if degraded {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, map[string]any{
		"ok":         !degraded,
		"uptime_sec": time.Since(s.start).Seconds(),
		"versions":   versions,
	})
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	type versionStats struct {
		Version string              `json:"version"`
		State   string              `json:"state"`
		Percent int                 `json:"percent,omitempty"`
		Stats   nimble.ServiceStats `json:"stats"`
	}
	models := map[string][]versionStats{}
	for _, ms := range s.reg.Models() {
		for _, vs := range ms.Versions {
			models[ms.Name] = append(models[ms.Name], versionStats{
				Version: vs.Version,
				State:   string(vs.State),
				Percent: vs.Percent,
				Stats:   vs.Stats,
			})
		}
	}
	writeJSON(w, map[string]any{"models": models, "shared_storage": s.reg.SharedStorageStats()})
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
