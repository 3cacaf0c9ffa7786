package nimble_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"nimble"
	"nimble/internal/tensor"
	"nimble/internal/vm"
	"nimble/models"
)

func compileMLPVerified(t *testing.T, opts ...nimble.Option) *nimble.Program {
	t.Helper()
	m := models.NewMLP(models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 1})
	p, err := nimble.Compile(m.Module, opts...)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// TestWithVerifyCompiles pins that check mode accepts real pipeline output:
// the verifier runs after every pass and over the bytecode, and the
// resulting program still executes.
func TestWithVerifyCompiles(t *testing.T) {
	p := compileMLPVerified(t, nimble.WithVerify())
	if err := p.Verify(); err != nil {
		t.Fatalf("Program.Verify on a compiled program: %v", err)
	}
	s := p.NewSession()
	defer s.Close()
}

// TestLoadRejectsMutatedExecutable pins the untrusted-input path: a
// serialized executable whose bytecode was tampered with must come back as
// a typed ErrVerify, not execute and not panic.
func TestLoadRejectsMutatedExecutable(t *testing.T) {
	// A structurally valid executable whose one function reads a register
	// that was never written and jumps backward without the loop mark.
	exe := vm.NewExecutable()
	exe.Code = []vm.Instruction{
		{Op: vm.OpMove, Dst: 1, A: 2},
		{Op: vm.OpGoto, B: 0, Off1: -1},
	}
	exe.AddFunc(vm.VMFunc{Name: "main", NumParams: 1, RegCount: 3, Start: 0, Len: 2})
	exe.Freeze()
	var buf bytes.Buffer
	if _, err := exe.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	_, err := nimble.Load(&buf, nil)
	if err == nil {
		t.Fatal("Load accepted a mutated executable")
	}
	if !errors.Is(err, nimble.ErrVerify) {
		t.Fatalf("error does not match ErrVerify: %v", err)
	}
	var ve *nimble.VerificationError
	if !errors.As(err, &ve) {
		t.Fatalf("error is %T, want *VerificationError: %v", err, err)
	}
	if ve.Stage != "loaded executable" {
		t.Errorf("Stage = %q, want %q", ve.Stage, "loaded executable")
	}
	if len(ve.Violations) == 0 || !strings.Contains(ve.Violations[0], "[exe.") {
		t.Errorf("violations do not carry catalog IDs: %q", ve.Violations)
	}
}

// shortPanels saves the verified MLP, cuts one panel off its first packed
// constant, records units(n) as that constant's column count and writes it
// back. It returns the bytes and the compiled program, whose kernels Load
// links.
func shortPanels(t *testing.T, units func(int) int) (*bytes.Buffer, *nimble.Program) {
	t.Helper()
	var buf bytes.Buffer
	prog := compileMLPVerified(t)
	if _, err := prog.Save(&buf); err != nil {
		t.Fatal(err)
	}
	exe, err := vm.ReadExecutable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	short := -1
	for i, n := range exe.ConstUnits {
		if n > 0 && short < 0 {
			short = i
			k := exe.Consts[i].Shape()[0]
			exe.Consts[i] = tensor.New(tensor.Float32, k, exe.Consts[i].Shape()[1]-16)
			exe.ConstUnits[i] = units(n)
		}
	}
	if short < 0 {
		t.Fatal("the compiled MLP has no packed constant")
	}
	buf.Reset()
	if _, err := exe.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf, prog
}

// TestLoadRejectsShortPanels pins the packed-weight check of the untrusted
// path: a saved program whose dense_packed B is one panel short of the
// column count the file records for it fails Load with ErrVerify.
func TestLoadRejectsShortPanels(t *testing.T) {
	_, err := nimble.Load(shortPanels(t, func(n int) int { return n }))
	if !errors.Is(err, nimble.ErrVerify) || !strings.Contains(err.Error(), "[exe.packed-const]") {
		t.Fatalf("Load of short panels: %v, want ErrVerify naming exe.packed-const", err)
	}
}

// TestShortPanelsWithoutUnitsFailOnCall covers the file that records no
// column count (units 0) for the same short constant: exe.packed-const has
// nothing to compare, so it loads. What stops the read past the panels is
// the call's own check of P against the kernel's units (the dense_packed
// shape function and, under it, the kernel's extent check), made before
// any row tile runs: the call returns an error.
func TestShortPanelsWithoutUnitsFailOnCall(t *testing.T) {
	p, err := nimble.Load(shortPanels(t, func(int) int { return 0 }))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	in := nimble.TensorValue(tensor.Random(rand.New(rand.NewSource(1)), 1, 2, 8))
	if _, err := p.NewSession().Invoke(context.Background(), "main", in); err == nil || !strings.Contains(err.Error(), "dense_packed") {
		t.Fatalf("Invoke over short panels: %v, want an error from the dense_packed check", err)
	}
}

// TestSaveLoadVerifiesClean pins the positive Load path: a Save/Load
// round-trip of a real program passes the executable verifier.
func TestSaveLoadVerifiesClean(t *testing.T) {
	p := compileMLPVerified(t, nimble.WithVerify())
	var buf bytes.Buffer
	if _, err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := nimble.Load(&buf, p)
	if err != nil {
		t.Fatalf("round-trip load: %v", err)
	}
	if err := loaded.Verify(); err != nil {
		t.Fatalf("Program.Verify on a loaded program: %v", err)
	}
}
