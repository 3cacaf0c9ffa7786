package compiler_test

import (
	"testing"

	"nimble/internal/compiler"
	"nimble/internal/ir"
	"nimble/internal/models"
)

// TestCompiledModelSizes fences the built-in models' executables, at the
// sizes nimble compile builds them, with ceilings on their kernel and
// instruction counts. A fused kernel is named by what it computes, so
// layers that differ only in their weights share one kernel (the MLP's
// hidden layers, BERT's and the decoder's blocks), and a chain reads each
// value's shape once (BERT's dynamic allocations). A count above its
// ceiling means the compiler states some computation more than once.
func TestCompiledModelSizes(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		mod                   *ir.Module
		kernels, instructions int
	}{
		{"mlp", models.NewMLP(models.DefaultMLPConfig()).Module, 4, 35},
		{"lstm", models.NewLSTM(models.DefaultLSTMConfig(1)).Module, 9, 46},
		{"lstm2", models.NewLSTM(models.DefaultLSTMConfig(2)).Module, 9, 73},
		{"treelstm", models.NewTreeLSTM(models.DefaultTreeLSTMConfig()).Module, 13, 87},
		{"bert", models.NewBERT(models.BERTReduced()).Module, 28, 940},
		{"decoder", models.NewDecoder(models.DefaultDecoderConfig()).Module, 16, 266},
	} {
		res, err := compiler.Compile(tc.mod, compiler.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := res.Stats.Kernels; got > tc.kernels {
			t.Errorf("%s: %d kernels, want at most %d", tc.name, got, tc.kernels)
		}
		if got := res.Stats.Instructions; got > tc.instructions {
			t.Errorf("%s: %d instructions, want at most %d", tc.name, got, tc.instructions)
		}
	}
}
