package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"nimble"
	"nimble/internal/vm"
	"nimble/tensor"
)

// callResult is one request's answer and its timestamps. first is when the
// first output was in hand (the first streamed token; for a unary call the
// whole answer, or over HTTP the response headers).
type callResult struct {
	reply
	start, first, end time.Time
	err               error
}

// caller sends one case through one layer's entry point. The ladder and
// the load generators are both built from callers, so every layer is
// driven through the same exported function whichever harness calls it.
type caller func(c *testCase) callResult

// invoker is the verb pair Session and Service share; registryModel adapts
// a Registry to it.
type invoker interface {
	Invoke(ctx context.Context, entry string, args ...nimble.Value) (nimble.Value, error)
	InvokeStream(ctx context.Context, entry string, args ...nimble.Value) (*nimble.Stream, error)
}

type registryModel struct {
	reg  *nimble.Registry
	name string
}

func (r registryModel) Invoke(ctx context.Context, entry string, args ...nimble.Value) (nimble.Value, error) {
	return r.reg.Invoke(ctx, r.name, entry, args...)
}

func (r registryModel) InvokeStream(ctx context.Context, entry string, args ...nimble.Value) (*nimble.Stream, error) {
	return r.reg.InvokeStream(ctx, r.name, entry, args...)
}

// apiCaller drives Session.Invoke, Service.Invoke or Registry.Invoke (or
// their InvokeStream forms for a streaming model).
func apiCaller(ctx context.Context, inv invoker, m *model) caller {
	return func(c *testCase) (res callResult) {
		res.start = time.Now()
		if !m.stream {
			v, err := inv.Invoke(ctx, m.entry, c.args...)
			res.end = time.Now()
			res.first = res.end
			if err != nil {
				res.err = err
				return res
			}
			res.out, _ = v.Tensor()
			return res
		}
		st, err := inv.InvokeStream(ctx, m.entry, c.args...)
		if err != nil {
			res.end, res.err = time.Now(), err
			return res
		}
		defer st.Close()
		for st.Next() {
			if res.first.IsZero() {
				res.first = time.Now()
			}
			if t, ok := st.Value().Tensor(); ok && t.DType() == tensor.Int64 && t.NumElements() == 1 {
				res.tokens = append(res.tokens, t.I64()[0])
			}
		}
		v, err := st.Result()
		res.end = time.Now()
		if res.first.IsZero() {
			res.first = res.end
		}
		if err != nil {
			res.err = err
			return res
		}
		res.out, _ = v.Tensor()
		return res
	}
}

// httpCaller drives POST /invoke or /stream on a running server.
func httpCaller(client *http.Client, base string, m *model, sizes *httpSizes) caller {
	return func(c *testCase) (res callResult) {
		res.start = time.Now()
		res.reply, res.first, res.err = httpCall(client, base, m, c, sizes)
		res.end = time.Now()
		return res
	}
}

// vmCaller drives vm.VM.InvokeContext directly, below the public API. The
// arguments are lowered to VM objects before the clock starts, so the span
// covers the interpreter and its kernels and nothing else.
func vmCaller(ctx context.Context, machine *vm.VM, m *model) caller {
	return func(c *testCase) (res callResult) {
		objs := make([]vm.Object, len(c.args))
		for i, a := range c.args {
			o, err := toObject(a)
			if err != nil {
				res.err = err
				return res
			}
			objs[i] = o
		}
		var out vm.Object
		res.start = time.Now()
		if m.stream {
			out, res.err = machine.InvokeStreamContext(ctx, func(t *tensor.Tensor) error {
				if res.first.IsZero() {
					res.first = time.Now()
				}
				res.tokens = append(res.tokens, t.I64()[0])
				return nil
			}, m.entry, objs...)
		} else {
			out, res.err = machine.InvokeContext(ctx, m.entry, objs...)
		}
		res.end = time.Now()
		if res.first.IsZero() {
			res.first = res.end
		}
		if res.err != nil {
			return res
		}
		to, ok := out.(*vm.TensorObj)
		if !ok {
			res.err = fmt.Errorf("entry returned %T, want a tensor", out)
			return res
		}
		res.out = to.T
		return res
	}
}

// toObject lowers a public Value to the VM's object form, as the public
// API does internally.
func toObject(v nimble.Value) (vm.Object, error) {
	switch v.Kind() {
	case nimble.KindTensor:
		t, _ := v.Tensor()
		return vm.NewTensorObj(t), nil
	case nimble.KindADT, nimble.KindTuple:
		fields := make([]vm.Object, len(v.Fields()))
		for i, f := range v.Fields() {
			o, err := toObject(f)
			if err != nil {
				return nil, err
			}
			fields[i] = o
		}
		return &vm.ADT{Tag: v.Tag(), Fields: fields}, nil
	}
	return nil, fmt.Errorf("benchmark: invalid value")
}
