package vm_test

import (
	"context"
	"math/rand"
	"testing"

	"nimble/internal/models"
	"nimble/internal/vm"
)

// BenchmarkVMInvoke times one warmed InvokeContext per op on a single
// session, with no serving layer above it, and reports its Go allocations:
// the VM's own cost on the recursive ADT model (Tree-LSTM, cycling through
// 16 trees of 3–52 leaves, the serving benchmark's range), the recursive
// list model (an LSTM over 16 steps) and the compiled decode loop (one
// 32-token greedy generation). `make bench-vm` runs it.
func BenchmarkVMInvoke(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tree := models.NewTreeLSTM(models.DefaultTreeLSTMConfig())
	var trees [][]vm.Object
	for i := 0; i < 16; i++ {
		t := models.RandomTree(rng, 3+rng.Intn(50), tree.Config.Input)
		trees = append(trees, []vm.Object{tree.ToObject(t)})
	}
	lstm := models.NewLSTM(models.DefaultLSTMConfig(1))
	dec := models.NewDecoder(models.DefaultDecoderConfig())
	cases := []struct {
		name, entry string
		exe         *vm.Executable
		args        [][]vm.Object
	}{
		{"treelstm", "main", mustCompile(b, tree.Module).Exe, trees},
		{"lstm", "main", mustCompile(b, lstm.Module).Exe, [][]vm.Object{{lstm.RandomSequence(rng, 16)}}},
		{"decoder", "generate", mustCompile(b, dec.Module).Exe, [][]vm.Object{{vm.NewTensorObj(models.StartToken(5))}}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			machine := vm.New(c.exe)
			ctx := context.Background()
			for _, args := range c.args { // warm the pool
				if _, err := machine.InvokeContext(ctx, c.entry, args...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := machine.InvokeContext(ctx, c.entry, c.args[i%len(c.args)]...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
