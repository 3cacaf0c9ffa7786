package nimble_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"nimble"
	"nimble/ir"
	"nimble/models"
	"nimble/tensor"
)

// TestEntrypointSignatures pins Program.Entrypoints for the four evaluation
// models: names, parameter/result types (including Any dims and ADT
// constructors), and the row-separability verdict that drives serving.
func TestEntrypointSignatures(t *testing.T) {
	type want struct {
		sig          string
		rowSeparable bool
	}
	cases := []struct {
		model   string
		compile func() (*nimble.Program, error)
		entries map[string]want
	}{
		{
			model: "mlp",
			compile: func() (*nimble.Program, error) {
				return nimble.Compile(models.NewMLP(models.DefaultMLPConfig()).Module)
			},
			entries: map[string]want{
				"main": {"main(Tensor[(Any, 64), float32]) -> Tensor[(Any, 16), float32]", true},
			},
		},
		{
			model: "lstm",
			compile: func() (*nimble.Program, error) {
				return nimble.Compile(models.NewLSTM(models.DefaultLSTMConfig(1)).Module)
			},
			entries: map[string]want{
				"main": {"main(List) -> Tensor[(1, 512), float32]", false},
				"loop": {"loop(List, Tensor[(1, 512), float32], Tensor[(1, 512), float32]) -> Tensor[(1, 512), float32]", false},
			},
		},
		{
			model: "treelstm",
			compile: func() (*nimble.Program, error) {
				return nimble.Compile(models.NewTreeLSTM(models.DefaultTreeLSTMConfig()).Module)
			},
			entries: map[string]want{
				"main": {"main(Tree) -> Tensor[(1, 150), float32]", false},
				"enc":  {"enc(Tree) -> (Tensor[(1, 150), float32], Tensor[(1, 150), float32])", false},
			},
		},
		{
			model: "bert",
			compile: func() (*nimble.Program, error) {
				return nimble.Compile(models.NewBERT(models.BERTReduced()).Module)
			},
			entries: map[string]want{
				"main": {"main(Tensor[(Any), int64]) -> Tensor[(Any, 256), float32]", false},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.model, func(t *testing.T) {
			p, err := tc.compile()
			if err != nil {
				t.Fatal(err)
			}
			sigs := p.Entrypoints()
			if len(sigs) != len(tc.entries) {
				t.Errorf("got %d entrypoints, want %d: %v", len(sigs), len(tc.entries), sigs)
			}
			for _, sig := range sigs {
				w, ok := tc.entries[sig.Name]
				if !ok {
					t.Errorf("unexpected entry %q", sig.Name)
					continue
				}
				if sig.String() != w.sig {
					t.Errorf("signature = %q, want %q", sig.String(), w.sig)
				}
				if sig.RowSeparable != w.rowSeparable {
					t.Errorf("%s RowSeparable = %v, want %v", sig.Name, sig.RowSeparable, w.rowSeparable)
				}
			}
		})
	}
}

// TestEntrypointADTInfo pins the constructor metadata generic callers
// (the HTTP layer's ADT decoding) depend on.
func TestEntrypointADTInfo(t *testing.T) {
	m := models.NewLSTM(models.LSTMConfig{Input: 8, Hidden: 8, Layers: 1, Seed: 1})
	p, err := nimble.Compile(m.Module)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := p.Entry("main")
	if err != nil {
		t.Fatal(err)
	}
	adt := sig.Params[0].ADT
	if adt == nil || adt.Name != "List" || len(adt.Constructors) != 2 {
		t.Fatalf("List ADT info missing or wrong: %+v", sig.Params[0])
	}
	byName := map[string]nimble.CtorInfo{}
	for _, c := range adt.Constructors {
		byName[c.Name] = c
	}
	if c, ok := byName["Nil"]; !ok || len(c.Fields) != 0 {
		t.Errorf("Nil constructor wrong: %+v", byName)
	}
	cons, ok := byName["Cons"]
	if !ok || len(cons.Fields) != 2 {
		t.Fatalf("Cons constructor wrong: %+v", byName)
	}
	if cons.Fields[0].Kind != nimble.KindTensorType {
		t.Errorf("Cons field 0 = %+v, want tensor", cons.Fields[0])
	}
	// The recursive reference is broken by name, not infinite recursion.
	if cons.Fields[1].Kind != nimble.KindADTType || cons.Fields[1].ADT.Name != "List" ||
		cons.Fields[1].ADT.Constructors != nil {
		t.Errorf("Cons field 1 = %+v, want name-only List reference", cons.Fields[1])
	}
	if c := byName["Cons"]; c.Tag == byName["Nil"].Tag {
		t.Error("constructor tags collide")
	}
}

func TestUnknownEntryAndArity(t *testing.T) {
	m := models.NewMLP(models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 1})
	p, err := nimble.Compile(m.Module)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess := p.NewSession()
	if _, err := sess.Invoke(ctx, "nope"); !errors.Is(err, nimble.ErrUnknownEntry) {
		t.Errorf("unknown entry error = %v, want ErrUnknownEntry", err)
	}
	if _, err := sess.Invoke(ctx, "main"); !errors.Is(err, nimble.ErrBadArity) {
		t.Errorf("zero-arg invoke error = %v, want ErrBadArity", err)
	}
	in := nimble.TensorValue(m.RandomBatch(rand.New(rand.NewSource(1)), 2))
	if _, err := sess.Invoke(ctx, "main", in, in); !errors.Is(err, nimble.ErrBadArity) {
		t.Errorf("two-arg invoke error = %v, want ErrBadArity", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Invoke(ctx, "main", in); !errors.Is(err, nimble.ErrClosed) {
		t.Errorf("closed session error = %v, want ErrClosed", err)
	}

	svc, err := p.Serve(nimble.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Invoke(ctx, "nope"); !errors.Is(err, nimble.ErrUnknownEntry) {
		t.Errorf("service unknown entry error = %v, want ErrUnknownEntry", err)
	}
	svc.Close()
	if _, err := svc.Invoke(ctx, "main", in); !errors.Is(err, nimble.ErrClosed) {
		t.Errorf("closed service error = %v, want ErrClosed", err)
	}
}

// TestSessionServiceAgree pins the unified verb: the same invocation
// through a Session, a batching Service, and a pool-only Service produces
// identical outputs, and the Service counts the MLP call as coalescible.
func TestSessionServiceAgree(t *testing.T) {
	m := models.NewMLP(models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 2})
	mkProg := func() *nimble.Program {
		mm := models.NewMLP(models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 2})
		p, err := nimble.Compile(mm.Module)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ctx := context.Background()
	in := nimble.TensorValue(m.RandomBatch(rand.New(rand.NewSource(3)), 3))

	sess := mkProg().NewSession()
	want, err := sess.Invoke(ctx, "main", in)
	if err != nil {
		t.Fatal(err)
	}
	wt, _ := want.Tensor()

	for _, disableBatch := range []bool{false, true} {
		opts := []nimble.ServiceOption{nimble.WithWorkers(2)}
		if disableBatch {
			opts = append(opts, nimble.WithMaxBatch(1))
		}
		svc, err := mkProg().Serve(opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.Invoke(ctx, "main", in)
		if err != nil {
			t.Fatal(err)
		}
		gt, _ := got.Tensor()
		if !gt.AllClose(wt, 1e-6, 1e-7) {
			t.Errorf("service (batching=%v) output differs from session output", !disableBatch)
		}
		st := svc.Stats()
		if disableBatch && len(st.Batchers) != 0 {
			t.Errorf("DisableBatching left %d batchers", len(st.Batchers))
		}
		if !disableBatch {
			if len(st.Batchers) != 1 {
				t.Fatalf("batching service has %d batchers, want 1 (row-separable main)", len(st.Batchers))
			}
			if st.Batchers[0].Singles+st.Batchers[0].Coalesced == 0 {
				t.Error("single-tensor call did not route through the batcher")
			}
		}
		svc.Close()
	}
}

// TestSaveLoadRoundTrip pins Program serialization through the public API:
// signatures survive via the linking library and outputs are identical.
func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := models.LSTMConfig{Input: 8, Hidden: 8, Layers: 1, Seed: 4}
	m := models.NewLSTM(cfg)
	p, err := nimble.Compile(m.Module)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// The same module compiles again to the same bytes.
	lib, err := nimble.Compile(m.Module)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := lib.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Error("a second Compile of the module saves different bytes")
	}
	loaded, err := nimble.Load(&buf, lib)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(loaded.Entrypoints()), len(p.Entrypoints()); got != want {
		t.Fatalf("loaded program has %d entrypoints, want %d", got, want)
	}
	for i, sig := range loaded.Entrypoints() {
		if sig.String() != p.Entrypoints()[i].String() {
			t.Errorf("loaded signature %q != compiled %q", sig, p.Entrypoints()[i])
		}
	}

	ctx := context.Background()
	seq := models.RandomSequenceValue(m, rand.New(rand.NewSource(5)), 6)
	want, err := p.NewSession().Invoke(ctx, "main", seq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.NewSession().Invoke(ctx, "main", seq)
	if err != nil {
		t.Fatal(err)
	}
	wt, _ := want.Tensor()
	gt, _ := got.Tensor()
	if !gt.Equal(wt) {
		t.Error("loaded program output differs from compiled program output")
	}

	// Unlinked load: introspectable, not invocable.
	buf.Reset()
	if _, err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	unlinked, err := nimble.Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unlinked.Disassemble() == "" {
		t.Error("unlinked program should disassemble")
	}
	if _, err := unlinked.NewSession().Invoke(ctx, "main", seq); err == nil {
		t.Error("unlinked program invoke should fail")
	}
}

// TestValueRoundTrip pins the Value wrappers: ADT/tuple construction and
// result decomposition through a real invocation (Tree-LSTM's enc returns
// a tuple).
func TestValueRoundTrip(t *testing.T) {
	cfg := models.TreeLSTMConfig{Input: 8, Hidden: 8, Seed: 6}
	m := models.NewTreeLSTM(cfg)
	p, err := nimble.Compile(m.Module)
	if err != nil {
		t.Fatal(err)
	}
	tree := models.RandomTree(rand.New(rand.NewSource(7)), 4, cfg.Input)
	v := models.TreeValue(m, tree)
	if v.Kind() != nimble.KindADT {
		t.Fatalf("tree value kind = %v", v.Kind())
	}
	out, err := p.NewSession().Invoke(context.Background(), "enc", v)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind() != nimble.KindTuple || len(out.Fields()) != 2 {
		t.Fatalf("enc returned %v with %d fields, want 2-tuple", out.Kind(), len(out.Fields()))
	}
	for i, f := range out.Fields() {
		ft, ok := f.Tensor()
		if !ok {
			t.Fatalf("tuple field %d is %v, want tensor", i, f.Kind())
		}
		if ft.Shape()[1] != cfg.Hidden {
			t.Errorf("tuple field %d shape %v", i, ft.Shape())
		}
	}
	// Zero values are rejected, not crashed on.
	if _, err := p.NewSession().Invoke(context.Background(), "main", nimble.Value{}); err == nil {
		t.Error("zero Value accepted")
	}
}

func TestCompileStats(t *testing.T) {
	p, err := nimble.Compile(models.NewMLP(models.DefaultMLPConfig()).Module)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Instructions == 0 || st.Kernels == 0 {
		t.Errorf("empty stats: %+v", st)
	}
	if st.FusionGroups == 0 {
		t.Errorf("MLP should fuse: %+v", st)
	}
	// The two hidden layers share their fused kernel, and the disassembly
	// says so.
	if d := p.Disassemble(); !strings.Contains(d, "sites=2   fused1(dense_packed+bias_add+relu)\n") {
		t.Errorf("disassembly does not show the hidden layers' shared kernel:\n%s", d)
	}
}

// TestDispatchWidthRejected pins that an invalid WithDispatchWidth fails
// Compile whether or not the module has an operator whose kernel reads it.
func TestDispatchWidthRejected(t *testing.T) {
	x := ir.NewVar("x", ir.TT(tensor.Float32, 4))
	for name, body := range map[string]ir.Expr{"tanh": ir.CallOp("tanh", x), "identity": x} {
		mod := ir.NewModule()
		mod.AddFunc("main", ir.NewFunc([]*ir.Var{x}, body, nil))
		if _, err := nimble.Compile(mod, nimble.WithDispatchWidth(3)); err == nil || !strings.Contains(err.Error(), "dispatch width 3") {
			t.Errorf("%s: err = %v, want the dispatch width rejected", name, err)
		}
	}
}
