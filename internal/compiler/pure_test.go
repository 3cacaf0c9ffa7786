package compiler_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nimble/internal/compiler"
	"nimble/internal/conformance"
	"nimble/internal/ir"
	"nimble/internal/models"
	"nimble/internal/tensor"
	"nimble/internal/typeinfer"
	"nimble/internal/vm"
)

type pureCase struct {
	name  string
	mod   *ir.Module
	entry string
	args  []vm.Object
}

func pureCases() []pureCase {
	rng := rand.New(rand.NewSource(5))
	mlp := models.NewMLP(models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 2, Seed: 1})
	lstm := models.NewLSTM(models.LSTMConfig{Input: 16, Hidden: 24, Layers: 2, Seed: 2})
	tree := models.NewTreeLSTM(models.TreeLSTMConfig{Input: 12, Hidden: 10, Seed: 3})
	bert := models.NewBERT(models.BERTConfig{Layers: 1, Hidden: 32, Heads: 2, FFN: 64, Vocab: 128, MaxSeq: 32, Seed: 4})
	dec := models.NewDecoder(models.DefaultDecoderConfig())
	cases := []pureCase{
		{"mlp", mlp.Module, "main", []vm.Object{vm.NewTensorObj(mlp.RandomBatch(rng, 3))}},
		{"lstm", lstm.Module, "main", []vm.Object{lstm.RandomSequence(rng, 5)}},
		{"treelstm", tree.Module, "main", []vm.Object{tree.ToObject(models.RandomTree(rng, 6, 12))}},
		{"bert", bert.Module, "main", []vm.Object{vm.NewTensorObj(bert.RandomIDs(rng, 7))}},
		{"decoder", dec.Module, "generate", []vm.Object{vm.NewTensorObj(models.StartToken(9))}},
	}
	for seed := int64(1); seed <= 4; seed++ {
		p := conformance.Generate(rand.New(rand.NewSource(seed)))
		cases = append(cases, pureCase{fmt.Sprintf("program/%d", seed), p.BuildModule(), "main", tensorArgs(p.Inputs())})
		l := conformance.GenerateLoop(rand.New(rand.NewSource(seed)))
		cases = append(cases, pureCase{fmt.Sprintf("loop/%d", seed), l.BuildModule(), "main", tensorArgs(l.Inputs())})
	}
	return cases
}

func tensorArgs(ts []*tensor.Tensor) []vm.Object {
	out := make([]vm.Object, len(ts))
	for i, t := range ts {
		out[i] = vm.NewTensorObj(t)
	}
	return out
}

// TestCompileIsPure pins that Compile depends only on its module and
// options: the module's printed IR (after inference) is the same before
// and after Compile, and a second compile of the same module serializes
// byte-identically and computes the same result.
func TestCompileIsPure(t *testing.T) {
	for _, c := range pureCases() {
		t.Run(c.name, func(t *testing.T) {
			if err := typeinfer.InferModule(c.mod); err != nil {
				t.Fatal(err)
			}
			before := ir.PrintModule(c.mod)
			first, firstOut := compileAndRun(t, c)
			if after := ir.PrintModule(c.mod); after != before {
				t.Errorf("Compile changed the module's IR; first difference:\n%s", firstDiff(before, after))
			}
			second, secondOut := compileAndRun(t, c)
			if !bytes.Equal(first, second) {
				t.Errorf("second compile serializes differently (%d vs %d bytes)", len(first), len(second))
			}
			if !secondOut.Equal(firstOut) {
				t.Errorf("second compile computes %v, first computed %v", secondOut, firstOut)
			}
		})
	}
}

func compileAndRun(t *testing.T, c pureCase) ([]byte, *tensor.Tensor) {
	t.Helper()
	res, err := compiler.Compile(c.mod, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := res.Exe.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := vm.New(res.Exe).InvokeContext(context.Background(), c.entry, c.args...)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), out.(*vm.TensorObj).T
}

// firstDiff renders the first line where two printed modules differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  - %s\n  + %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d lines against %d", len(al), len(bl))
}
