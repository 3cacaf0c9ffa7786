package nimble

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nimble/internal/vm"
)

// Registry hosts many Programs behind one front door with versioned names
// and zero-downtime weight hot-swap. Each model name owns a sequence of
// versions ("v1", "v2", ...); requests address a model as "bert" (the
// routed serving mix), "bert@latest" (the newest live version), or
// "bert@v2" (pinned). Deploying a new version is atomic from the caller's
// view:
//
//  1. the new Program is verified (the static invariant catalog — a bad
//     artifact is rejected before it can serve a single request),
//  2. a standby Service is built over it,
//  3. an atomic epoch pointer flips, so every admission from that instant
//     routes to the new version,
//  4. the old version drains: its Service shuts down, so every request it
//     admitted (queued, running or streaming) finishes on it before its
//     sessions are released. A request that resolved the old epoch but was
//     not yet admitted is refused by the closed Service and re-routes to
//     the new epoch.
//
// No request ever observes mixed-version state: it runs entirely on the
// version that admitted it, and a version is only released once every such
// request has finished.
//
// Deploying WithCanary(pct) keeps the current stable and routes pct% of
// unpinned traffic to the new version — deterministically: a request
// carrying WithRouteKey always routes the same way within one canary epoch,
// and unkeyed traffic is split by an exact round-robin stride. Promote
// makes the canary the new stable (draining the old); Rollback drops the
// canary (draining it) and leaves stable untouched.
//
// All deployed services attach to one shared cross-program storage pool,
// so resident buffer memory scales with the
// concurrent working set rather than #models × #sessions.
//
// All methods are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex // serializes Deploy/Promote/Rollback/Shutdown
	models sync.Map   // name -> *modelState; read path is lock-free
	names  []string   // deploy order, under mu

	shared        *vm.SharedStoragePool
	serveDefaults []ServiceOption
	seed          uint64
	epochCount    atomic.Uint64 // distinct seeds per canary epoch
	drainBound    time.Duration
	drains        sync.WaitGroup // background drains of replaced versions
	closed        atomic.Bool
}

// NewRegistry builds an empty registry. The default configuration shares
// one storage pool across everything it will host, drains replaced
// versions with a 30s bound, and seeds canary routing deterministically.
func NewRegistry(opts ...RegistryOption) *Registry {
	cfg := registryConfig{seed: 1, drainBound: 30 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	return &Registry{
		shared:        vm.NewSharedStoragePool(),
		serveDefaults: cfg.serveDefaults,
		seed:          cfg.seed,
		drainBound:    cfg.drainBound,
	}
}

// modelState is one name's mutable routing state. The epoch pointer is the
// swap: readers load it once per request and never see a half-updated mix.
type modelState struct {
	name        string
	epoch       atomic.Pointer[modelEpoch]
	nextVersion atomic.Int64
}

// modelEpoch is an immutable snapshot of one name's serving mix: the
// stable version, the canary (nil outside a canary rollout) with its
// percentage and split seed, and the stride counter unkeyed requests are
// split by. Every routing change (deploy, promote, rollback) installs a
// fresh epoch; nothing in a published epoch is ever mutated except the
// counter, which is atomic.
type modelEpoch struct {
	stable  *modelVersion
	canary  *modelVersion
	percent int
	seed    uint64
	counter atomic.Uint64
}

// live lists the epoch's versions, stable first.
func (ep *modelEpoch) live() []*modelVersion {
	vs := []*modelVersion{ep.stable}
	if ep.canary != nil {
		vs = append(vs, ep.canary)
	}
	return vs
}

// modelVersion is one deployed Program with its serving runtime. Its
// Service's admissions are the version's in-flight requests.
type modelVersion struct {
	model    string
	version  string
	prog     *Program
	svc      *Service
	deployed time.Time
}

// splitModelRef parses "name", "name@latest", or "name@vN". The empty
// version string means "no pin" (route the serving mix).
func splitModelRef(ref string) (name, version string, err error) {
	name, version, tagged := strings.Cut(ref, "@")
	if name == "" || (tagged && version == "") || strings.Contains(version, "@") {
		return "", "", badModelRef(ref)
	}
	return name, version, nil
}

func badModelRef(ref string) error {
	return fmt.Errorf("%w: malformed model reference %q (want name, name@latest, or name@vN)", ErrBadInput, ref)
}

// state returns the named model's routing state.
func (r *Registry) state(name string) (*modelState, error) {
	if v, ok := r.models.Load(name); ok {
		return v.(*modelState), nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
}

// Deploy registers prog as the next version of name and returns its
// version label ("v1", "v2", ...). The program is verified first — a
// Deploy can never put an artifact in the serving path that the static
// checker rejects. Without options the deploy is a full hot-swap: new
// admissions route to the new version the moment Deploy returns, and every
// previously live version of the name drains in the background (bounded by
// the registry's drain timeout) before its sessions are released.
// WithCanary(pct) instead keeps the current stable and routes pct% of
// unpinned traffic to the new version until Promote or Rollback.
func (r *Registry) Deploy(name string, prog *Program, opts ...DeployOption) (string, error) {
	if strings.Contains(name, "@") || name == "" {
		return "", badModelRef(name)
	}
	var cfg deployConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.canary < 0 || cfg.canary > 100 {
		return "", fmt.Errorf("%w: canary percentage %d outside [0,100]", ErrBadInput, cfg.canary)
	}
	if prog == nil || prog.unlinked {
		return "", fmt.Errorf("nimble: registry: deploy %q: program has no linked kernels", name)
	}
	// The PR 6 verifier gates the swap: a deploy that violates the
	// executable invariant catalog is refused outright.
	if err := prog.Verify(); err != nil {
		return "", fmt.Errorf("nimble: registry: deploy %q: %w", name, err)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return "", fmt.Errorf("nimble: registry: %w", ErrClosed)
	}
	var ms *modelState
	if v, ok := r.models.Load(name); ok {
		ms = v.(*modelState)
	} else {
		ms = &modelState{name: name}
	}
	old := ms.epoch.Load()
	if cfg.canary > 0 && old == nil {
		return "", fmt.Errorf("nimble: registry: deploy %q: canary needs a stable version to split against", name)
	}

	// Build the standby Service before touching any routing state: a
	// failed build must leave the old epoch serving untouched.
	svc, err := prog.Serve(slices.Concat(r.serveDefaults, []ServiceOption{withSharedStorage(r.shared)})...)
	if err != nil {
		return "", fmt.Errorf("nimble: registry: deploy %q: %w", name, err)
	}
	nv := &modelVersion{
		model:    name,
		version:  fmt.Sprintf("v%d", ms.nextVersion.Add(1)),
		prog:     prog,
		svc:      svc,
		deployed: time.Now(),
	}

	ep := &modelEpoch{stable: nv}
	var drains []*modelVersion
	if cfg.canary > 0 {
		ep.stable = old.stable
		ep.canary = nv
		ep.percent = cfg.canary
		ep.seed = splitmix64(r.seed ^ (r.epochCount.Add(1) * 0x9e3779b97f4a7c15))
		if old.canary != nil {
			drains = append(drains, old.canary) // replaced mid-rollout
		}
	} else if old != nil {
		drains = append(drains, old.live()...)
	}
	ms.epoch.Store(ep)
	if _, loaded := r.models.LoadOrStore(name, ms); !loaded {
		r.names = append(r.names, name)
	}
	for _, v := range drains {
		r.drainAsync(v)
	}
	return nv.version, nil
}

// Promote makes name's canary the stable version — the rollout succeeded —
// and drains the old stable. Returns the promoted version label.
func (r *Registry) Promote(name string) (string, error) {
	return r.endCanary(name, true)
}

// Rollback drops name's canary — the rollout failed — draining it; the
// stable version keeps serving untouched. Returns the dropped version
// label.
func (r *Registry) Rollback(name string) (string, error) {
	return r.endCanary(name, false)
}

func (r *Registry) endCanary(name string, promote bool) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return "", fmt.Errorf("nimble: registry: %w", ErrClosed)
	}
	ms, err := r.state(name)
	if err != nil {
		return "", err
	}
	old := ms.epoch.Load()
	if old == nil || old.canary == nil {
		return "", fmt.Errorf("nimble: registry: %q: %w", name, ErrNoCanary)
	}
	var ep *modelEpoch
	var drained *modelVersion
	if promote {
		ep = &modelEpoch{stable: old.canary}
		drained = old.stable
	} else {
		ep = &modelEpoch{stable: old.stable}
		drained = old.canary
	}
	ms.epoch.Store(ep)
	r.drainAsync(drained)
	if promote {
		return ep.stable.version, nil
	}
	return drained.version, nil
}

// drainAsync retires a replaced version in the background: new routes stop
// landing on it (the epoch no longer lists it), its Service shuts down so
// admitted requests and open streams finish, then the sessions are
// released. Bounded by the registry's drain timeout; stragglers past the
// bound are cut with ErrClosed by Service.Shutdown.
func (r *Registry) drainAsync(v *modelVersion) {
	r.drains.Add(1)
	go func() {
		defer r.drains.Done()
		ctx, cancel := context.WithTimeout(context.Background(), r.drainBound)
		defer cancel()
		_ = v.svc.Shutdown(ctx)
	}()
}

// route is one routing decision: the epoch a request read, the version it
// picked there, and the pin and key it picked by.
type route struct {
	ms           *modelState
	ep           *modelEpoch
	v            *modelVersion
	version, key string
}

// resolve routes a model reference within the model's current epoch.
func (r *Registry) resolve(ref, key string) (route, error) {
	name, version, err := splitModelRef(ref)
	if err != nil {
		return route{}, err
	}
	ms, err := r.state(name)
	if err != nil {
		return route{}, err
	}
	return ms.pick(version, key)
}

// pick routes a pin and key within the model's current epoch.
func (ms *modelState) pick(version, key string) (route, error) {
	ep := ms.epoch.Load()
	v := pickVersion(ep, version, key)
	if v == nil {
		return route{}, fmt.Errorf("%w: %q has no version %q", ErrUnknownModel, ms.name, version)
	}
	return route{ms: ms, ep: ep, v: v, version: version, key: key}, nil
}

// admit admits one request on the version rt picked; the Service's
// admission is the request's only in-flight count. A swap may have closed
// that Service since rt was read: when admit refuses with ErrClosed, the
// registry is open and the model's epoch has moved on, the request routes
// afresh in the new epoch. Every other outcome is returned, so each retry
// needs a newer epoch and the loop ends.
func (r *Registry) admit(ctx context.Context, rt route, entry string, args []Value, ic invokeConfig, stream bool) (*admission, error) {
	for {
		a, err := rt.v.svc.admit(ctx, entry, args, ic, stream)
		if !errors.Is(err, ErrClosed) || r.closed.Load() || rt.ms.epoch.Load() == rt.ep {
			return a, err
		}
		if rt, err = rt.ms.pick(rt.version, rt.key); err != nil {
			return nil, err
		}
	}
}

// open is the front half of Registry.InvokeOpts and InvokeStreamOpts:
// route, then admit.
func (r *Registry) open(ctx context.Context, model, entry string, args []Value, opts []InvokeOption, stream bool) (*admission, error) {
	if r.closed.Load() {
		return nil, fmt.Errorf("nimble: registry: %w", ErrClosed)
	}
	ic := foldInvokeOptions(opts)
	rt, err := r.resolve(model, ic.routeKey)
	if err != nil {
		return nil, err
	}
	return r.admit(ctx, rt, entry, args, ic, stream)
}

// pickVersion selects within one epoch: a pinned version by label, @latest
// as the newest live version (the canary during a rollout), and the
// unpinned form as the canary-weighted serving mix. Returns nil for an
// unknown pin.
func pickVersion(ep *modelEpoch, version, key string) *modelVersion {
	switch version {
	case "":
		if ep.canary != nil && routeCanary(ep, key) {
			return ep.canary
		}
		return ep.stable
	case "latest":
		if ep.canary != nil {
			return ep.canary
		}
		return ep.stable
	case ep.stable.version:
		return ep.stable
	default:
		if ep.canary != nil && ep.canary.version == version {
			return ep.canary
		}
		return nil
	}
}

// routeCanary decides one unpinned request. Keyed requests hash against
// the epoch seed — the same key routes the same way for the epoch's whole
// life, so a user session never flaps between weight versions mid-rollout.
// Unkeyed requests take an exact deterministic stride: of any N consecutive
// arrivals, floor-exactly pct% land on the canary (a Bresenham split, not a
// coin flip), so observed share converges to the configured share as fast
// as arithmetic allows.
func routeCanary(ep *modelEpoch, key string) bool {
	pct := uint64(ep.percent)
	if key != "" {
		h := fnv.New64a()
		_, _ = h.Write([]byte(key))
		return splitmix64(h.Sum64()^ep.seed)%100 < pct
	}
	// Canary iff floor(((n+1)·pct)/100) > floor((n·pct)/100): of any 100
	// consecutive arrivals exactly pct land on the canary.
	n := ep.counter.Add(1) - 1
	return (n*pct)%100+pct >= 100
}

// splitmix64 is the avalanche mix used to derive per-epoch route bits;
// identical constants to internal/faults' deterministic schedule.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Invoke runs entry on the model the reference resolves to, with full
// Service semantics (validation, admission, quarantine). model is "name",
// "name@latest", or "name@vN".
func (r *Registry) Invoke(ctx context.Context, model, entry string, args ...Value) (Value, error) {
	return r.InvokeOpts(ctx, model, entry, args)
}

// InvokeOpts is Invoke with per-request options. WithRouteKey pins the
// request's canary-split decision for the epoch's life; priority and
// deadline options pass through to the resolved Service.
func (r *Registry) InvokeOpts(ctx context.Context, model, entry string, args []Value, opts ...InvokeOption) (Value, error) {
	a, err := r.open(ctx, model, entry, args, opts, false)
	if err != nil {
		return Value{}, err
	}
	return a.invoke()
}

// InvokeStream opens a token stream on the resolved model version, with
// Service.InvokeStream's synchronous-open semantics. The stream holds its
// version's admission for its whole life: a hot-swap concurrent with an
// open stream waits for it (within the drain bound) before the old
// version's sessions are released.
func (r *Registry) InvokeStream(ctx context.Context, model, entry string, args ...Value) (*Stream, error) {
	return r.InvokeStreamOpts(ctx, model, entry, args)
}

// InvokeStreamOpts is InvokeStream with per-request options.
func (r *Registry) InvokeStreamOpts(ctx context.Context, model, entry string, args []Value, opts ...InvokeOption) (*Stream, error) {
	a, err := r.open(ctx, model, entry, args, opts, true)
	if err != nil {
		return nil, err
	}
	return &Stream{src: a}, nil
}

// Program resolves a model reference to the deployed Program serving it
// right now — "name" and "name@latest" follow the same resolution as
// Invoke (without consuming a canary-split slot) — for introspection:
// entry signatures, disassembly, stats.
func (r *Registry) Program(model string) (*Program, error) {
	name, version, err := splitModelRef(model)
	if err != nil {
		return nil, err
	}
	ms, err := r.state(name)
	if err != nil {
		return nil, err
	}
	ep := ms.epoch.Load()
	// Introspection pins nothing: resolve the mix's stable side for the
	// unpinned form (canary and stable share the model family's surface).
	if version == "" {
		version = ep.stable.version
	}
	if v := pickVersion(ep, version, ""); v != nil {
		return v.prog, nil
	}
	return nil, fmt.Errorf("%w: %q has no version %q", ErrUnknownModel, name, version)
}

// VersionState labels a deployed version's role in its model's epoch.
type VersionState string

const (
	// VersionStable serves the non-canary share of unpinned traffic.
	VersionStable VersionState = "stable"
	// VersionCanary serves the configured percentage of unpinned traffic.
	VersionCanary VersionState = "canary"
)

// VersionStatus reports one live version of a model.
type VersionStatus struct {
	Version string       `json:"version"`
	State   VersionState `json:"state"`
	// Percent is the canary's share of unpinned traffic; 0 for stable.
	Percent int `json:"percent,omitempty"`
	// InFlight counts the requests and open streams this version's Service
	// has admitted and not yet finished.
	InFlight int64     `json:"in_flight"`
	Deployed time.Time `json:"deployed"`
	Stats    ServiceStats
	Health   Health
}

// ModelStatus reports one model name and its live versions, stable first.
type ModelStatus struct {
	Name     string          `json:"name"`
	Versions []VersionStatus `json:"versions"`
}

// Models snapshots every deployed model in deploy order.
func (r *Registry) Models() []ModelStatus {
	r.mu.Lock()
	names := slices.Clone(r.names)
	r.mu.Unlock()
	out := make([]ModelStatus, 0, len(names))
	for _, name := range names {
		v, ok := r.models.Load(name)
		if !ok {
			continue
		}
		ms := v.(*modelState)
		ep := ms.epoch.Load()
		st := ModelStatus{Name: name}
		for _, mv := range ep.live() {
			vs := VersionStatus{
				Version:  mv.version,
				State:    VersionStable,
				InFlight: mv.svc.inflight.Load(),
				Deployed: mv.deployed,
				Stats:    mv.svc.Stats(),
				Health:   mv.svc.Health(),
			}
			if mv == ep.canary {
				vs.State = VersionCanary
				vs.Percent = ep.percent
			}
			st.Versions = append(st.Versions, vs)
		}
		out = append(out, st)
	}
	return out
}

// SharedStorageStats snapshots the cross-program storage pool.
func (r *Registry) SharedStorageStats() SharedStorageStats {
	return r.shared.Stats()
}

// Shutdown closes the registry gracefully: new Deploys and Invokes fail
// with ErrClosed immediately, every live version of every model drains
// (in-flight requests and open streams get until ctx is done), and any
// background swap drains still running are awaited under the same bound.
// A nil error means everything drained.
func (r *Registry) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	if r.closed.Swap(true) {
		r.mu.Unlock()
		return nil
	}
	var live []*modelVersion
	r.models.Range(func(_, v any) bool {
		live = append(live, v.(*modelState).epoch.Load().live()...)
		return true
	})
	r.mu.Unlock()

	for _, v := range live {
		r.drains.Add(1)
		go func() {
			defer r.drains.Done()
			_ = v.svc.Shutdown(ctx)
		}()
	}
	done := make(chan struct{})
	go func() {
		r.drains.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("nimble: registry: drain window expired: %w", ErrClosed)
	}
}

// Close shuts the registry down with a bounded default drain (5s), like
// Service.Close. Idempotent.
func (r *Registry) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.Shutdown(ctx)
}
