package conformance

import (
	"context"
	"fmt"

	"nimble/internal/compiler"
	"nimble/internal/ir"
	"nimble/internal/tensor"
)

// Tolerances for VM-vs-eager comparison. The compiled pipeline reorders
// float work (fusion epilogues, destination passing, pooled buffers), so
// bit-equality is not the contract; 1e-5 relative agreement is.
const (
	RTol = 1e-5
	ATol = 1e-5
)

// checkable is any generated program the differential harness can drive:
// straight-line Programs and loop-carried LoopPrograms.
type checkable interface {
	Describe() string
	BuildModule() *ir.Module
	Inputs() []*tensor.Tensor
	EagerEval() (*tensor.Tensor, error)
}

// Check compiles the program through the full pipeline, runs it on the VM,
// runs the eager reference, and returns an error describing the first
// divergence. A nil return means the two executions agree within
// RTol/ATol.
func Check(p *Program) error { return check(p) }

// CheckLoop is Check for loop-carried in-place programs.
func CheckLoop(p *LoopProgram) error { return check(p) }

func check(p checkable) error {
	want, err := p.EagerEval()
	if err != nil {
		return fmt.Errorf("eager reference failed: %w\n%s", err, p.Describe())
	}
	// Verify: true runs the static verifier after every pass on every
	// generated program, so the fuzzer doubles as the verifier's
	// false-positive hunt — any invariant "violation" on a program whose
	// compiled output also matches eager execution is a verifier bug.
	machine, _, err := compiler.CompileToVM(p.BuildModule(), compiler.Options{Verify: true})
	if err != nil {
		return fmt.Errorf("compile failed: %w\n%s", err, p.Describe())
	}
	got, err := machine.InvokeTensorsContext(context.Background(), "main", p.Inputs()...)
	if err != nil {
		return fmt.Errorf("vm execution failed: %w\n%s", err, p.Describe())
	}
	if err := diff(got, want); err != nil {
		return fmt.Errorf("%w\n%s", err, p.Describe())
	}
	// Second invocation on the same VM: the storage pool and recycled
	// frames are now warm, so this exercises buffer-reuse paths the first
	// run cannot.
	got2, err := machine.InvokeTensorsContext(context.Background(), "main", p.Inputs()...)
	if err != nil {
		return fmt.Errorf("second vm execution failed: %w\n%s", err, p.Describe())
	}
	if err := diff(got2, want); err != nil {
		return fmt.Errorf("rerun with warm storage pool: %w\n%s", err, p.Describe())
	}
	return nil
}

func diff(got, want *tensor.Tensor) error {
	if !got.Shape().Equal(want.Shape()) {
		return fmt.Errorf("vm shape %v != eager shape %v", got.Shape(), want.Shape())
	}
	if !got.AllClose(want, RTol, ATol) {
		g, w := got.AsF64(), want.AsF64()
		worst, at := 0.0, 0
		for i := range g {
			d := g[i] - w[i]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst, at = d, i
			}
		}
		return fmt.Errorf("vm output diverges from eager reference: |Δ|=%g at flat index %d (vm=%g eager=%g)",
			worst, at, g[at], w[at])
	}
	return nil
}
