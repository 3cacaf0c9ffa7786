package nimble

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nimble/internal/models"
	"nimble/internal/tensor"
)

// compileMLPProg compiles a small MLP with the given weight seed; two
// seeds are two "weight versions" of the same architecture, with
// distinguishable outputs — the identity oracle the swap tests hang on.
func compileMLPProg(t testing.TB, seed int64) *Program {
	t.Helper()
	p, err := Compile(models.NewMLP(models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: seed}).Module)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRegistryDeployRoute pins the reference grammar and the routing table:
// auto-incrementing version labels, pinned/latest/unpinned resolution, and
// the typed errors each malformed or missing reference maps to.
func TestRegistryDeployRoute(t *testing.T) {
	r := NewRegistry(WithServeDefaults(WithWorkers(1)))
	defer r.Close()
	ctx := context.Background()

	v, err := r.Deploy("mlp", compileMLPProg(t, 31))
	if err != nil {
		t.Fatal(err)
	}
	if v != "v1" {
		t.Fatalf("first deploy labeled %q, want v1", v)
	}

	m := models.NewMLP(models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 31})
	in := TensorValue(m.RandomBatch(rand.New(rand.NewSource(1)), 2))
	for _, ref := range []string{"mlp", "mlp@v1", "mlp@latest"} {
		if _, err := r.Invoke(ctx, ref, "main", in); err != nil {
			t.Errorf("Invoke(%q) = %v", ref, err)
		}
	}

	// Unknown name and unknown pinned version are ErrUnknownModel (a 404:
	// well-formed, absent); malformed references are ErrBadInput (a 400).
	for _, ref := range []string{"nope", "nope@v1", "mlp@v9"} {
		if _, err := r.Invoke(ctx, ref, "main", in); !errors.Is(err, ErrUnknownModel) {
			t.Errorf("Invoke(%q) = %v, want ErrUnknownModel", ref, err)
		}
	}
	for _, ref := range []string{"", "@", "mlp@", "@v1", "mlp@v1@v2"} {
		if _, err := r.Invoke(ctx, ref, "main", in); !errors.Is(err, ErrBadInput) {
			t.Errorf("Invoke(%q) = %v, want ErrBadInput", ref, err)
		}
	}

	// Control-plane error surface.
	if _, err := r.Promote("mlp"); !errors.Is(err, ErrNoCanary) {
		t.Errorf("Promote with no canary = %v, want ErrNoCanary", err)
	}
	if _, err := r.Rollback("nope"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("Rollback of unknown model = %v, want ErrUnknownModel", err)
	}
	if _, err := r.Deploy("bad@name", compileMLPProg(t, 31)); !errors.Is(err, ErrBadInput) {
		t.Errorf("Deploy with @ in name = %v, want ErrBadInput", err)
	}
	if _, err := r.Deploy("mlp", compileMLPProg(t, 32), WithCanary(120)); !errors.Is(err, ErrBadInput) {
		t.Errorf("Deploy with canary=120 = %v, want ErrBadInput", err)
	}
	if _, err := r.Deploy("fresh", compileMLPProg(t, 32), WithCanary(10)); err == nil {
		t.Error("canary deploy with no stable version accepted")
	}

	// A plain second deploy is a full swap: v2 serves, and the pinned v1
	// reference goes stale once the drain retires it.
	v, err = r.Deploy("mlp", compileMLPProg(t, 32))
	if err != nil {
		t.Fatal(err)
	}
	if v != "v2" {
		t.Fatalf("second deploy labeled %q, want v2", v)
	}
	if _, err := r.Invoke(ctx, "mlp@v1", "main", in); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("pinned invoke of swapped-out version = %v, want ErrUnknownModel", err)
	}
	st := r.Models()
	if len(st) != 1 || len(st[0].Versions) != 1 || st[0].Versions[0].Version != "v2" ||
		st[0].Versions[0].State != VersionStable {
		t.Fatalf("Models() after swap = %+v", st)
	}
	if p, err := r.Program("mlp"); err != nil || p == nil {
		t.Fatalf("Program(mlp) = %v, %v", p, err)
	}
}

// TestRegistryStreamReleasesVersion: a stream's version ref is given back
// before its Result returns, so a caller that has its result sees the
// version idle.
func TestRegistryStreamReleasesVersion(t *testing.T) {
	r := NewRegistry(WithServeDefaults(WithWorkers(1)))
	defer r.Close()
	p, err := Compile(models.NewDecoder(models.DefaultDecoderConfig()).Module)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Deploy("decoder", p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		st, err := r.InvokeStream(context.Background(), "decoder", "generate", TensorValue(models.StartToken(int64(i+1))))
		if err != nil {
			t.Fatal(err)
		}
		for st.Next() {
		}
		if _, err := st.Result(); err != nil {
			t.Fatal(err)
		}
		if v := r.Models()[0].Versions[0]; v.InFlight != 0 {
			t.Fatalf("stream %d: version %s reports InFlight %d after Result returned", i, v.Version, v.InFlight)
		}
	}
}

// TestRegistryInFlightIsSchedulerRuns: a version's InFlight is its runs
// queued or running on its scheduler. A stream parked on an unread token
// counts as one; once the stream is closed the version shows none.
func TestRegistryInFlightIsSchedulerRuns(t *testing.T) {
	r := NewRegistry(WithServeDefaults(WithWorkers(1)))
	defer r.Close()
	p, err := Compile(models.NewDecoder(models.DefaultDecoderConfig()).Module)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Deploy("decoder", p); err != nil {
		t.Fatal(err)
	}
	st, err := r.InvokeStream(context.Background(), "decoder", "generate", TensorValue(models.StartToken(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Next() {
		t.Fatalf("no first token: %v", st.Err())
	}
	if v := r.Models()[0].Versions[0]; v.InFlight != 1 {
		t.Fatalf("open stream parked on its next token: InFlight = %d, want 1", v.InFlight)
	}
	if err := st.Close(); err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("Close mid-stream: %v", err)
	}
	if v := r.Models()[0].Versions[0]; v.InFlight != 0 {
		t.Fatalf("after Close: InFlight = %d, want 0", v.InFlight)
	}
}

// TestRegistryCanaryLifecycle walks a rollout end to end: deploy a canary
// at an exact split, watch the unkeyed stride deliver exactly that
// percentage, promote, and confirm the promoted version owns all traffic.
// Rollback is the mirror: the canary drains, stable is untouched.
func TestRegistryCanaryLifecycle(t *testing.T) {
	ctx := context.Background()
	mcfg := func(seed int64) models.MLPConfig {
		return models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: seed}
	}
	// Per-version references for one shared input: which weights served a
	// response is decidable from its bytes.
	in := TensorValue(models.NewMLP(mcfg(31)).RandomBatch(rand.New(rand.NewSource(2)), 1))
	refOf := func(seed int64) *tensor.Tensor {
		p, err := Compile(models.NewMLP(mcfg(seed)).Module)
		if err != nil {
			t.Fatal(err)
		}
		s := p.NewSession()
		defer s.Close()
		out, err := s.Invoke(ctx, "main", in)
		if err != nil {
			t.Fatal(err)
		}
		rt, _ := out.Tensor()
		return rt
	}
	ref1, ref2 := refOf(31), refOf(32)
	if ref1.Equal(ref2) {
		t.Fatal("the two weight versions are indistinguishable; the oracle is vacuous")
	}

	r := NewRegistry(WithServeDefaults(WithWorkers(2)), WithRegistrySeed(7))
	defer r.Close()
	p1, err := Compile(models.NewMLP(mcfg(31)).Module)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(models.NewMLP(mcfg(32)).Module)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Deploy("mlp", p1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Deploy("mlp", p2, WithCanary(25)); err != nil {
		t.Fatal(err)
	}

	st := r.Models()
	if len(st[0].Versions) != 2 || st[0].Versions[1].State != VersionCanary || st[0].Versions[1].Percent != 25 {
		t.Fatalf("Models() during rollout = %+v", st[0])
	}

	// 200 sequential unkeyed requests: the deterministic stride must land
	// exactly 25% on the canary — not approximately.
	canaryHits := 0
	for i := 0; i < 200; i++ {
		out, err := r.Invoke(ctx, "mlp", "main", in)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := out.Tensor()
		switch {
		case got.Equal(ref2):
			canaryHits++
		case !got.Equal(ref1):
			t.Fatal("response matches neither version's reference")
		}
	}
	if canaryHits != 50 {
		t.Fatalf("canary served %d of 200 unkeyed requests, want exactly 50 at 25%%", canaryHits)
	}

	// @latest resolves to the canary during a rollout; the pin still works.
	out, err := r.Invoke(ctx, "mlp@latest", "main", in)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := out.Tensor(); !got.Equal(ref2) {
		t.Error("@latest did not resolve to the canary during rollout")
	}

	// A keyed request never flaps within the epoch.
	first := ""
	for i := 0; i < 20; i++ {
		out, err := r.InvokeOpts(ctx, "mlp", "main", []Value{in}, WithRouteKey("user-1"))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := out.Tensor()
		ver := "v1"
		if got.Equal(ref2) {
			ver = "v2"
		}
		if first == "" {
			first = ver
		} else if ver != first {
			t.Fatalf("route key flapped from %s to %s within one epoch", first, ver)
		}
	}

	// Promote: v2 owns everything, v1 drains away.
	if v, err := r.Promote("mlp"); err != nil || v != "v2" {
		t.Fatalf("Promote = %q, %v", v, err)
	}
	for i := 0; i < 20; i++ {
		out, err := r.Invoke(ctx, "mlp", "main", in)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := out.Tensor(); !got.Equal(ref2) {
			t.Fatal("post-promotion response not from the promoted version")
		}
	}
	if _, err := r.Promote("mlp"); !errors.Is(err, ErrNoCanary) {
		t.Errorf("second Promote = %v, want ErrNoCanary", err)
	}

	// Rollback path on a fresh rollout: stable (now v2) keeps serving.
	p3, err := Compile(models.NewMLP(mcfg(31)).Module)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Deploy("mlp", p3, WithCanary(50)); err != nil {
		t.Fatal(err)
	}
	if v, err := r.Rollback("mlp"); err != nil || v != "v3" {
		t.Fatalf("Rollback = %q, %v", v, err)
	}
	for i := 0; i < 20; i++ {
		out, err := r.Invoke(ctx, "mlp", "main", in)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := out.Tensor(); !got.Equal(ref2) {
			t.Fatal("post-rollback response not from the stable version")
		}
	}
}

// TestCanaryDeterminism is the split-quality property test: across 200
// seeded epochs the keyed hash split stays within ±1 percentage point of
// the configured percentage, a given key routes identically for the
// epoch's whole life, and the unkeyed stride is not just close but exact.
func TestCanaryDeterminism(t *testing.T) {
	pcts := []int{1, 5, 10, 25, 50, 75, 90, 99}
	const keys = 50_000
	for trial := 0; trial < 200; trial++ {
		pct := pcts[trial%len(pcts)]
		ep := &modelEpoch{percent: pct, seed: splitmix64(uint64(trial) * 0x9e3779b97f4a7c15)}

		// Keyed split: measured share within ±1 point of configured.
		hits := 0
		for k := 0; k < keys; k++ {
			if routeCanary(ep, fmt.Sprintf("req-%d", k)) {
				hits++
			}
		}
		got := 100 * float64(hits) / keys
		if diff := got - float64(pct); diff < -1 || diff > 1 {
			t.Fatalf("trial %d: keyed split %.2f%% for configured %d%% (off by %.2f)", trial, got, pct, diff)
		}

		// Stickiness: re-asking for any key gives the same answer.
		for k := 0; k < 100; k++ {
			key := fmt.Sprintf("req-%d", k)
			if routeCanary(ep, key) != routeCanary(ep, key) {
				t.Fatalf("trial %d: key %q flapped within one epoch", trial, key)
			}
		}

		// Unkeyed stride: of any 100×N consecutive arrivals, exactly pct×N
		// go to the canary.
		strideEp := &modelEpoch{percent: pct}
		strideHits := 0
		for n := 0; n < 1000; n++ {
			if routeCanary(strideEp, "") {
				strideHits++
			}
		}
		if strideHits != 10*pct {
			t.Fatalf("trial %d: stride sent %d of 1000 to a %d%% canary, want exactly %d", trial, strideHits, pct, 10*pct)
		}
	}

	// Different epochs route differently: distinct seeds must re-deal the
	// keyed split (otherwise every rollout canaries the same users).
	a := &modelEpoch{percent: 50, seed: splitmix64(1)}
	b := &modelEpoch{percent: 50, seed: splitmix64(2)}
	flipped := 0
	for k := 0; k < 1000; k++ {
		key := fmt.Sprintf("req-%d", k)
		if routeCanary(a, key) != routeCanary(b, key) {
			flipped++
		}
	}
	if flipped == 0 {
		t.Error("two epochs with different seeds routed 1000 keys identically")
	}
}

// TestRegistrySwapUnderLoad is the zero-downtime proof: 64 concurrent
// clients — 48 invoking a BERT encoder, 16 streaming decoder generations —
// hammer the registry while weights hot-swap v1→v2→v1→… underneath them.
// Run under -race (the registry-smoke Make target does). The oracle:
//
//   - every response is byte-identical to exactly one version's reference
//     for its input — a mixed-version or torn response fails the run;
//   - no request or stream is dropped: admission is configured unbounded,
//     so every error is a failure;
//   - every completed stream matches one version's full reference — a
//     swap never cuts an in-flight generation.
func TestRegistrySwapUnderLoad(t *testing.T) {
	const (
		invokeClients = 48
		streamClients = 16
		iters         = 12
		swaps         = 6
	)
	ctx := context.Background()
	bcfg := func(seed int64) models.BERTConfig {
		return models.BERTConfig{Layers: 1, Hidden: 32, Heads: 2, FFN: 64, Vocab: 128, MaxSeq: 16, Seed: seed}
	}
	dcfg := func(seed int64) models.DecoderConfig {
		return models.DecoderConfig{Vocab: 64, Dim: 16, Layers: 1, Heads: 2, FFN: 32, MaxNew: 8, Seed: seed, Temp: 0.8}
	}

	// Per-input references for both weight versions of both models, from
	// clean single-session programs.
	rng := rand.New(rand.NewSource(9))
	bm := models.NewBERT(bcfg(1))
	bertIn := make([]Value, invokeClients)
	for i := range bertIn {
		bertIn[i] = TensorValue(bm.RandomIDs(rng, 3+i%6))
	}
	bertRef := map[int64][]*tensor.Tensor{}
	for _, seed := range []int64{1, 2} {
		p, err := Compile(models.NewBERT(bcfg(seed)).Module)
		if err != nil {
			t.Fatal(err)
		}
		s := p.NewSession()
		for _, in := range bertIn {
			out, err := s.Invoke(ctx, "main", in)
			if err != nil {
				t.Fatal(err)
			}
			rt, _ := out.Tensor()
			bertRef[seed] = append(bertRef[seed], rt)
		}
		s.Close()
	}
	decRef := map[int64][][]int64{}
	for _, seed := range []int64{1, 2} {
		p, err := Compile(models.NewDecoder(dcfg(seed)).Module)
		if err != nil {
			t.Fatal(err)
		}
		s := p.NewSession()
		for g := 0; g < streamClients; g++ {
			out, err := s.Invoke(ctx, "generate", TensorValue(models.StartToken(int64(g+1))))
			if err != nil {
				t.Fatal(err)
			}
			rt, _ := out.Tensor()
			decRef[seed] = append(decRef[seed], append([]int64(nil), rt.I64()...))
		}
		s.Close()
	}
	for i := range bertRef[1] {
		if bertRef[1][i].Equal(bertRef[2][i]) {
			t.Fatalf("BERT input %d: versions indistinguishable; oracle vacuous", i)
		}
	}

	// Unbounded admission, no breaker, generous timeouts: under a clean
	// swap every single request must succeed. Any error is a drop.
	r := NewRegistry(
		WithServeDefaults(
			WithWorkers(4),
			WithMaxQueue(-1),
			WithBreaker(-1, time.Second),
			WithRequestTimeout(time.Minute),
		),
		WithDrainTimeout(time.Minute),
	)
	defer r.Close()
	deploy := func(name string, seed int64) {
		t.Helper()
		var p *Program
		var err error
		if name == "bert" {
			p, err = Compile(models.NewBERT(bcfg(seed)).Module)
		} else {
			p, err = Compile(models.NewDecoder(dcfg(seed)).Module)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Deploy(name, p); err != nil {
			t.Fatal(err)
		}
	}
	deploy("bert", 1)
	deploy("decoder", 1)

	var (
		wg       sync.WaitGroup
		served   [2]atomic.Int64 // responses per weight version
		stop     atomic.Bool
		failures atomic.Int64
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}
	for g := 0; g < invokeClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters && !stop.Load(); i++ {
				out, err := r.Invoke(ctx, "bert", "main", bertIn[g])
				if err != nil {
					fail("invoke client %d iter %d dropped: %v", g, i, err)
					return
				}
				got, _ := out.Tensor()
				switch {
				case got.Equal(bertRef[1][g]):
					served[0].Add(1)
				case got.Equal(bertRef[2][g]):
					served[1].Add(1)
				default:
					fail("invoke client %d iter %d: response matches neither version — mixed-version state", g, i)
					return
				}
			}
		}(g)
	}
	for g := 0; g < streamClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start := TensorValue(models.StartToken(int64(g + 1)))
			for i := 0; i < iters && !stop.Load(); i++ {
				st, err := r.InvokeStream(ctx, "decoder", "generate", start)
				if err != nil {
					fail("stream client %d iter %d dropped at open: %v", g, i, err)
					return
				}
				var got []int64
				for st.Next() {
					tt, _ := st.Value().Tensor()
					got = append(got, tt.I64()...)
				}
				if err := st.Close(); err != nil {
					fail("stream client %d iter %d dropped mid-flight: %v", g, i, err)
					return
				}
				switch {
				case fmt.Sprint(got) == fmt.Sprint(decRef[1][g]):
					served[0].Add(1)
				case fmt.Sprint(got) == fmt.Sprint(decRef[2][g]):
					served[1].Add(1)
				default:
					fail("stream client %d iter %d: tokens match neither version's full reference\n  got %v", g, i, got)
					return
				}
			}
		}(g)
	}

	// The swapper: v1→v2→v1→… on both models while the clients run.
	for s := 0; s < swaps && failures.Load() == 0; s++ {
		seed := int64(1 + (s+1)%2)
		deploy("bert", seed)
		deploy("decoder", seed)
		time.Sleep(5 * time.Millisecond) // let traffic land on the new epoch
	}
	wg.Wait()
	stop.Store(true)

	if failures.Load() > 0 {
		t.FailNow()
	}
	if served[0].Load() == 0 || served[1].Load() == 0 {
		t.Fatalf("traffic never observed both versions (v1-weights=%d v2-weights=%d) — the swap did not happen under load",
			served[0].Load(), served[1].Load())
	}
	total := served[0].Load() + served[1].Load()
	if want := int64(invokeClients*iters + streamClients*iters); total != want {
		t.Fatalf("served %d responses, want %d — requests were dropped silently", total, want)
	}

	// Settle the drains, then check conservation: only the last-deployed
	// versions are live, with their pools intact and nothing in flight.
	time.Sleep(50 * time.Millisecond)
	for _, ms := range r.Models() {
		if len(ms.Versions) != 1 {
			t.Errorf("model %s has %d live versions after the swap storm, want 1", ms.Name, len(ms.Versions))
		}
		for _, vs := range ms.Versions {
			if vs.Stats.Pool.Workers != 4 {
				t.Errorf("%s@%s pool size drifted: %d", ms.Name, vs.Version, vs.Stats.Pool.Workers)
			}
			if vs.InFlight != 0 {
				t.Errorf("%s@%s still holds %d in-flight refs after quiescence", ms.Name, vs.Version, vs.InFlight)
			}
		}
	}
	t.Logf("served: v1-weights=%d v2-weights=%d across %d swaps", served[0].Load(), served[1].Load(), swaps)
}

// TestRegistryShutdownDeployRace pins the shutdown/deploy interaction in
// both orders: after Shutdown every verb is ErrClosed, and a Shutdown
// issued right after a hot-swap drains both the new stable and the
// still-retiring old version within the context bound.
func TestRegistryShutdownDeployRace(t *testing.T) {
	ctx := context.Background()

	t.Run("shutdown-then-deploy", func(t *testing.T) {
		r := NewRegistry(WithServeDefaults(WithWorkers(1)))
		if _, err := r.Deploy("mlp", compileMLPProg(t, 31)); err != nil {
			t.Fatal(err)
		}
		if err := r.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Deploy("mlp", compileMLPProg(t, 32)); !errors.Is(err, ErrClosed) {
			t.Errorf("Deploy after Shutdown = %v, want ErrClosed", err)
		}
		m := models.NewMLP(models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 31})
		in := TensorValue(m.RandomBatch(rand.New(rand.NewSource(1)), 1))
		if _, err := r.Invoke(ctx, "mlp", "main", in); !errors.Is(err, ErrClosed) {
			t.Errorf("Invoke after Shutdown = %v, want ErrClosed", err)
		}
		if _, err := r.InvokeStream(ctx, "mlp", "main", in); !errors.Is(err, ErrClosed) {
			t.Errorf("InvokeStream after Shutdown = %v, want ErrClosed", err)
		}
		if _, err := r.Promote("mlp"); !errors.Is(err, ErrClosed) {
			t.Errorf("Promote after Shutdown = %v, want ErrClosed", err)
		}
		if err := r.Shutdown(ctx); err != nil {
			t.Errorf("second Shutdown = %v, want nil (idempotent)", err)
		}
	})

	t.Run("deploy-then-shutdown", func(t *testing.T) {
		r := NewRegistry(WithServeDefaults(WithWorkers(2), WithMaxQueue(-1)))
		if _, err := r.Deploy("mlp", compileMLPProg(t, 31)); err != nil {
			t.Fatal(err)
		}
		m := models.NewMLP(models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 31})
		in := TensorValue(m.RandomBatch(rand.New(rand.NewSource(1)), 1))

		// In-flight load on v1 across the swap: these requests resolved the
		// old epoch and must complete on it even as Shutdown begins.
		var wg sync.WaitGroup
		var succeeded, closed atomic.Int64
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					_, err := r.Invoke(ctx, "mlp", "main", in)
					switch {
					case err == nil:
						succeeded.Add(1)
					case errors.Is(err, ErrClosed):
						closed.Add(1) // admitted after Shutdown flipped: fine
						return
					default:
						t.Errorf("swap+shutdown window produced untyped error: %v", err)
						return
					}
				}
			}()
		}
		// Wait until traffic is actually landing on v1 before swapping, so
		// the drain has something in flight to wait for.
		for succeeded.Load() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		// Hot-swap while loaded, then immediately shut down: v1 is still
		// draining when Shutdown starts, and Shutdown must await that drain
		// too (the background-drain WaitGroup), not just the live epoch.
		if _, err := r.Deploy("mlp", compileMLPProg(t, 32)); err != nil {
			t.Fatal(err)
		}
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := r.Shutdown(sctx); err != nil {
			t.Fatalf("Shutdown during swap drain = %v, want clean drain within bound", err)
		}
		wg.Wait()
		if succeeded.Load() == 0 {
			t.Error("no request completed across the swap+shutdown window")
		}
		if _, err := r.Invoke(ctx, "mlp", "main", in); !errors.Is(err, ErrClosed) {
			t.Errorf("Invoke after drained Shutdown = %v, want ErrClosed", err)
		}
	})
}

// BenchmarkRegistryOverhead measures what the registry's routing layer —
// epoch load, version pick — adds to a single-model
// invoke over calling the Service directly. The acceptance bar for the
// registry PR is ≤5% single-model throughput regression; run both and
// compare ns/op:
//
//	go test -run '^$' -bench BenchmarkRegistryOverhead -benchtime 2s .
func BenchmarkRegistryOverhead(b *testing.B) {
	ctx := context.Background()
	mcfg := models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 31}
	in := TensorValue(models.NewMLP(mcfg).RandomBatch(rand.New(rand.NewSource(7)), 4))

	b.Run("direct-service", func(b *testing.B) {
		p, err := Compile(models.NewMLP(mcfg).Module)
		if err != nil {
			b.Fatal(err)
		}
		svc, err := p.Serve(WithWorkers(2))
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Invoke(ctx, "main", in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("through-registry", func(b *testing.B) {
		r := NewRegistry(WithServeDefaults(WithWorkers(2)))
		defer r.Close()
		if _, err := r.Deploy("mlp", compileMLPProg(b, 31)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Invoke(ctx, "mlp", "main", in); err != nil {
				b.Fatal(err)
			}
		}
	})
}
