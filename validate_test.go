package nimble

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"nimble/internal/models"
	"nimble/internal/tensor"
)

// TestInvokeRejectsBadInput: kind, dtype, rank, and static-dimension
// violations are rejected at the Invoke boundary with ErrBadInput — before
// a session is consumed — while Any dimensions stay free.
func TestInvokeRejectsBadInput(t *testing.T) {
	m, svc := mlpService(t, WithWorkers(1), WithMaxBatch(1))
	ctx := context.Background()
	good := m.RandomBatch(rand.New(rand.NewSource(1)), 3)

	cases := []struct {
		name string
		arg  Value
		frag string // substring the error must carry
	}{
		{"zero value", Value{}, "zero Value"},
		{"wrong kind", ADTValue(0), "want tensor"},
		{"nil tensor", TensorValue(nil), "nil tensor"},
		{"wrong dtype", TensorValue(tensor.New(tensor.Int64, 3, 8)), "dtype"},
		{"wrong rank", TensorValue(tensor.New(tensor.Float32, 8)), "rank"},
		{"wrong static dim", TensorValue(tensor.New(tensor.Float32, 3, 9)), "dim"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := svc.Invoke(ctx, "main", tc.arg)
			if !errors.Is(err, ErrBadInput) {
				t.Fatalf("error = %v, want ErrBadInput", err)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("error %q does not mention %q", err, tc.frag)
			}
			if st := svc.Stats().Pool; st.Invocations != 0 {
				t.Errorf("rejected request consumed a session: %+v", st)
			}
		})
	}

	// Arity errors are in the family too (servers map one family → 400).
	_, err := svc.Invoke(ctx, "main")
	if !errors.Is(err, ErrBadInput) || !errors.Is(err, ErrBadArity) {
		t.Fatalf("arity error = %v, want ErrBadArity ∧ ErrBadInput", err)
	}

	// The batch (Any) dimension is genuinely free.
	for _, rows := range []int{1, 5, 17} {
		in := TensorValue(m.RandomBatch(rand.New(rand.NewSource(2)), rows))
		if _, err := svc.Invoke(ctx, "main", in); err != nil {
			t.Fatalf("valid %d-row batch rejected: %v", rows, err)
		}
	}
	if _, err := svc.Invoke(ctx, "main", TensorValue(good)); err != nil {
		t.Fatalf("valid input rejected after bad ones: %v", err)
	}
}

// TestValidateADTInputs: constructor tags, field arity, and recursive
// reference types are checked all the way down a structured input, and the
// error names the path to the violation.
func TestValidateADTInputs(t *testing.T) {
	cfg := models.LSTMConfig{Input: 4, Hidden: 4, Layers: 1, Seed: 4}
	m := models.NewLSTM(cfg)
	p, err := Compile(m.Module)
	if err != nil {
		t.Fatal(err)
	}
	sess := p.NewSession()
	defer sess.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))

	// Valid list runs.
	if _, err := sess.Invoke(ctx, "main", lstmList(t, m, rng, 3)); err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}

	// A bogus constructor tag.
	bad := ADTValue(max(m.NilC.Tag, m.ConsC.Tag) + 7)
	if _, err := sess.Invoke(ctx, "main", bad); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bogus tag error = %v, want ErrBadInput", err)
	}

	// Wrong field arity for Cons.
	bad = ADTValue(m.ConsC.Tag, TensorValue(m.RandomSteps(rng, 1)[0]))
	if _, err := sess.Invoke(ctx, "main", bad); !errors.Is(err, ErrBadInput) {
		t.Fatalf("arity-violating ctor error = %v, want ErrBadInput", err)
	}

	// A violation buried inside the recursive tail: node 2 carries a tensor
	// of the wrong dtype. The recursive by-name reference must still be
	// validated, and the error path should point into the structure.
	deep := ADTValue(m.NilC.Tag)
	wrongDT := tensor.New(tensor.Int64, 1, cfg.Input)
	deep = ADTValue(m.ConsC.Tag, TensorValue(wrongDT), deep)
	deep = ADTValue(m.ConsC.Tag, TensorValue(m.RandomSteps(rng, 1)[0]), deep)
	_, err = sess.Invoke(ctx, "main", deep)
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("deep dtype violation error = %v, want ErrBadInput", err)
	}
	if !strings.Contains(err.Error(), "dtype") {
		t.Errorf("deep violation error %q does not name the dtype mismatch", err)
	}
}

// TestValidateDeepListCheap: validating a 50k-node recursive input is
// linear and allocation-light — the error path (capped) is only built on
// failure, never on success.
func TestValidateDeepListCheap(t *testing.T) {
	cfg := models.LSTMConfig{Input: 8, Hidden: 8, Layers: 1, Seed: 4}
	m := models.NewLSTM(cfg)
	p, err := Compile(m.Module)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	deep := lstmList(t, m, rng, 50000)
	sig, ok := p.entries["main"]
	if !ok {
		t.Fatal("no main entry")
	}
	if err := checkArgs(sig, []Value{deep}); err != nil {
		t.Fatalf("valid deep list rejected: %v", err)
	}

	// Poison the innermost node and confirm the error path stays capped.
	poisoned := ADTValue(m.ConsC.Tag, TensorValue(tensor.New(tensor.Int64, 1, cfg.Input)), ADTValue(m.NilC.Tag))
	for i := 0; i < 5000; i++ {
		poisoned = ADTValue(m.ConsC.Tag, TensorValue(m.RandomSteps(rng, 1)[0]), poisoned)
	}
	err = checkArgs(sig, []Value{poisoned})
	if !errors.Is(err, ErrBadInput) {
		t.Fatalf("deep poison error = %v, want ErrBadInput", err)
	}
	if len(err.Error()) > 1024 {
		t.Errorf("deep violation error is %d bytes; the path cap is not working", len(err.Error()))
	}
}

// lstmList builds an n-step LSTM input list (same shape as objValue, local
// rng) — kept separate so validation tests do not depend on cancel_test.
func lstmList(t *testing.T, m *models.LSTM, rng *rand.Rand, n int) Value {
	t.Helper()
	steps := m.RandomSteps(rng, n)
	v := ADTValue(m.NilC.Tag)
	for i := len(steps) - 1; i >= 0; i-- {
		v = ADTValue(m.ConsC.Tag, TensorValue(steps[i]), v)
	}
	return v
}
