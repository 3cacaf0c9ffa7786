package bench

import (
	"context"
	"math/rand"
	"testing"

	"nimble/internal/compiler"
	"nimble/internal/models"
)

// TestLSTMStepAllocRegression locks in the destination-passing win on a
// compiled model: one LSTM timestep through the planned VM must stay under a
// fixed allocation budget. Before kernels wrote planned buffers directly,
// every packed call allocated a result tensor and copied it into the plan;
// if a future change reintroduces that pattern the count jumps well past
// this fence.
//
// The budget is NOT zero: the VM's object layer still allocates a small,
// bounded number of objects per step (tensor views carved from pooled
// storages, ADT list cells, register Objects for dynamic shapes). The fence
// is calibrated ~30% above the measured steady state (~98 allocs/step at
// this config) so it trips on systematic regressions, not jitter.
const maxAllocsPerLSTMStep = 128

func TestLSTMStepAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc calibration is timing-insensitive but not short")
	}
	cfg := models.LSTMConfig{Input: 32, Hidden: 32, Layers: 1, Seed: 3}
	m := models.NewLSTM(cfg)
	machine, _, err := compiler.CompileToVM(m.Module, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	const steps = 8
	seq := m.RandomSequence(rng, steps)

	run := func() {
		if _, err := machine.InvokeContext(context.Background(), "main", seq); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the storage pool and frame recycler
	perInvoke := testing.AllocsPerRun(20, run)
	perStep := perInvoke / steps
	t.Logf("compiled LSTM: %.0f allocs/invoke over %d steps = %.1f allocs/step", perInvoke, steps, perStep)
	if perStep > maxAllocsPerLSTMStep {
		t.Errorf("allocation regression: %.1f allocs/step exceeds the %d fence — did a kernel stop using its planned destination?",
			perStep, maxAllocsPerLSTMStep)
	}
}
