package nimble_test

import (
	"context"
	"fmt"
	"log"

	"nimble"
	"nimble/ir"
	"nimble/tensor"
)

// ExampleCompile builds a tiny dynamic model with an Any-shaped input,
// compiles it, and runs it on two different input sizes with one
// executable — the compile-once workflow of the paper.
func ExampleCompile() {
	// main(x: Tensor[(Any, 4)]) = tanh(x @ I)
	x := ir.NewVar("x", ir.TT(tensor.Float32, ir.DimAny, 4))
	w := ir.Const(tensor.FromF32([]float32{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}, 4, 4))
	b := ir.NewBuilder()
	out := b.Op("tanh", b.Op("dense", x, w))
	mod := ir.NewModule()
	mod.AddFunc("main", ir.NewFunc([]*ir.Var{x}, b.Finish(out), nil))

	prog, err := nimble.Compile(mod)
	if err != nil {
		log.Fatal(err)
	}
	sess := prog.NewSession()
	for _, rows := range []int{1, 3} {
		in := tensor.New(tensor.Float32, rows, 4)
		got, err := sess.Invoke(context.Background(), "main", nimble.TensorValue(in))
		if err != nil {
			log.Fatal(err)
		}
		t, _ := got.Tensor()
		fmt.Printf("(%d, 4) -> %v\n", rows, t.Shape())
	}
	// Output:
	// (1, 4) -> (1, 4)
	// (3, 4) -> (3, 4)
}

// ExampleProgram_Entrypoints shows compile-time introspection: parameter
// and result types (with Any dimensions) and the compiler's
// row-separability verdict, which decides micro-batching in a Service.
func ExampleProgram_Entrypoints() {
	x := ir.NewVar("x", ir.TT(tensor.Float32, ir.DimAny, 8))
	w := ir.Const(tensor.New(tensor.Float32, 8, 2))
	b := ir.NewBuilder()
	out := b.Op("relu", b.Op("dense", x, w))
	mod := ir.NewModule()
	mod.AddFunc("main", ir.NewFunc([]*ir.Var{x}, b.Finish(out), nil))

	prog, err := nimble.Compile(mod)
	if err != nil {
		log.Fatal(err)
	}
	for _, sig := range prog.Entrypoints() {
		fmt.Printf("%s  row-separable=%v\n", sig, sig.RowSeparable)
	}
	// Output:
	// main(Tensor[(Any, 8), float32]) -> Tensor[(Any, 2), float32]  row-separable=true
}

// ExampleProgram_Serve serves a program to concurrent callers: the service
// owns a session pool and coalesces queued requests to this row-separable
// entry automatically.
func ExampleProgram_Serve() {
	x := ir.NewVar("x", ir.TT(tensor.Float32, ir.DimAny, 2))
	w := ir.Const(tensor.FromF32([]float32{1, 2, 3, 4}, 2, 2))
	b := ir.NewBuilder()
	out := b.Op("dense", x, w)
	mod := ir.NewModule()
	mod.AddFunc("main", ir.NewFunc([]*ir.Var{x}, b.Finish(out), nil))

	prog, err := nimble.Compile(mod)
	if err != nil {
		log.Fatal(err)
	}
	svc, err := prog.Serve(nimble.WithWorkers(2))
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	in := nimble.TensorValue(tensor.FromF32([]float32{1, 1}, 1, 2))
	got, err := svc.Invoke(context.Background(), "main", in)
	if err != nil {
		log.Fatal(err)
	}
	t, _ := got.Tensor()
	fmt.Println(t.AsF64())
	// Output:
	// [4 6]
}
