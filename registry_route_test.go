package nimble

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nimble/internal/models"
)

// mlpIn is one input row the compileMLPProg versions all accept.
func mlpIn() Value {
	m := models.NewMLP(models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 31})
	return TensorValue(m.RandomBatch(rand.New(rand.NewSource(3)), 1))
}

// outputBytes runs in on a fresh single session of p and returns the
// serialized output: the reference a routed response must match bit for bit.
func outputBytes(t *testing.T, p *Program, v Value) []byte {
	t.Helper()
	s := p.NewSession()
	defer s.Close()
	out, err := s.Invoke(context.Background(), "main", v)
	if err != nil {
		t.Fatal(err)
	}
	return valueBytes(t, out)
}

func valueBytes(t *testing.T, v Value) []byte {
	t.Helper()
	tt, ok := v.Tensor()
	if !ok {
		t.Fatalf("output %v is not a tensor", v)
	}
	var buf bytes.Buffer
	if _, err := tt.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRegistryClosedRouteEnds: once the registry is closed, routing and
// admitting a request ends with ErrClosed even though the model's epoch
// still lists the version whose Service refused it. The call runs under a
// timer so a route loop that spins fails the test instead of hanging it.
func TestRegistryClosedRouteEnds(t *testing.T) {
	r := NewRegistry(WithServeDefaults(WithWorkers(1)))
	if _, err := r.Deploy("mlp", compileMLPProg(t, 31)); err != nil {
		t.Fatal(err)
	}
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rt, err := r.resolve("mlp", "")
	if err != nil {
		t.Fatalf("resolve after Shutdown = %v; the epoch must still list v1", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.admit(context.Background(), rt, "main", []Value{mlpIn()}, invokeConfig{}, false)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("admit on a closed registry = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("admit on a closed registry did not return within 1s")
	}
}

// TestRegistryStaleRouteReroutes covers the window between routing a
// request and admitting it. A route taken before a swap is admitted only
// after the old version's Service has closed: the request must run on the
// new epoch's pick, byte-identical to that version's reference, and a
// stale pin must answer ErrUnknownModel. The drain is awaited through the
// registry's drain group, so nothing depends on timing.
func TestRegistryStaleRouteReroutes(t *testing.T) {
	ctx := context.Background()
	in := mlpIn()
	progs := map[string]*Program{}
	refs := map[string][]byte{}
	for i, seed := range []int64{31, 32, 33} {
		v := fmt.Sprintf("v%d", i+1)
		progs[v] = compileMLPProg(t, seed)
		refs[v] = outputBytes(t, progs[v], in)
	}
	if bytes.Equal(refs["v1"], refs["v2"]) || bytes.Equal(refs["v2"], refs["v3"]) {
		t.Fatal("weight versions are indistinguishable; the oracle is vacuous")
	}

	// admitStale admits rt after its version has drained and checks which
	// version served it.
	admitStale := func(t *testing.T, r *Registry, rt route, want string) {
		t.Helper()
		run, err := r.admit(ctx, rt, "main", []Value{in}, invokeConfig{}, false)
		if err != nil {
			t.Fatalf("admit of stale route to %s = %v", rt.v.version, err)
		}
		out, err := await(run, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(valueBytes(t, out), refs[want]) {
			t.Fatalf("stale route to %s: output is not %s's reference", rt.v.version, want)
		}
	}
	drained := func(t *testing.T, r *Registry, rts ...route) {
		t.Helper()
		r.drains.Wait()
		for _, rt := range rts {
			if _, err := rt.v.svc.Invoke(ctx, "main", in); !errors.Is(err, ErrClosed) {
				t.Fatalf("%s's Service still open after its drain: Invoke = %v, want ErrClosed", rt.v.version, err)
			}
		}
	}

	t.Run("hot-swap", func(t *testing.T) {
		r := NewRegistry(WithServeDefaults(WithWorkers(1)))
		defer r.Close()
		if _, err := r.Deploy("mlp", progs["v1"]); err != nil {
			t.Fatal(err)
		}
		stale, err := r.resolve("mlp", "")
		if err != nil {
			t.Fatal(err)
		}
		pinned, err := r.resolve("mlp@v1", "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Deploy("mlp", progs["v2"]); err != nil {
			t.Fatal(err)
		}
		drained(t, r, stale, pinned)
		admitStale(t, r, stale, "v2")
		if _, err := r.admit(ctx, pinned, "main", []Value{in}, invokeConfig{}, false); !errors.Is(err, ErrUnknownModel) {
			t.Errorf("stale route pinned to mlp@v1 = %v, want ErrUnknownModel", err)
		}
		if _, err := r.Invoke(ctx, "mlp@v1", "main", in); !errors.Is(err, ErrUnknownModel) {
			t.Errorf("Invoke(mlp@v1) after the swap = %v, want ErrUnknownModel", err)
		}
	})

	t.Run("canary-replaced", func(t *testing.T) {
		r := NewRegistry(WithServeDefaults(WithWorkers(1)), WithRegistrySeed(7))
		defer r.Close()
		if _, err := r.Deploy("mlp", progs["v1"]); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Deploy("mlp", progs["v2"], WithCanary(50)); err != nil {
			t.Fatal(err)
		}
		latest, err := r.resolve("mlp@latest", "")
		if err != nil {
			t.Fatal(err)
		}
		// A keyed route that the first rollout sent to its canary.
		var keyed route
		for k := 0; keyed.v == nil || keyed.v.version != "v2"; k++ {
			if keyed, err = r.resolve("mlp", fmt.Sprintf("user-%d", k)); err != nil {
				t.Fatal(err)
			}
		}
		if latest.v.version != "v2" {
			t.Fatalf("mlp@latest during the rollout routed to %s, want the canary v2", latest.v.version)
		}
		// v3 replaces the canary mid-rollout; v2 drains.
		if _, err := r.Deploy("mlp", progs["v3"], WithCanary(50)); err != nil {
			t.Fatal(err)
		}
		drained(t, r, latest, keyed)
		admitStale(t, r, latest, "v3")
		ms, err := r.state("mlp")
		if err != nil {
			t.Fatal(err)
		}
		admitStale(t, r, keyed, pickVersion(ms.epoch.Load(), "", keyed.key).version)
	})
}
