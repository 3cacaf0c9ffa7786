package ir

import (
	"fmt"
	"sort"
	"sync"

	"nimble/internal/tensor"
)

// Attrs carries operator attributes (axis, stride, device, ...). Values are
// restricted to int, float64, bool, string, []int, and Device so attrs can
// be serialized into bytecode deterministically.
type Attrs map[string]interface{}

// Int fetches an int attribute with a default.
func (a Attrs) Int(key string, def int) int {
	if a == nil {
		return def
	}
	if v, ok := a[key]; ok {
		return v.(int)
	}
	return def
}

// Float fetches a float64 attribute with a default.
func (a Attrs) Float(key string, def float64) float64 {
	if a == nil {
		return def
	}
	if v, ok := a[key]; ok {
		return v.(float64)
	}
	return def
}

// Bool fetches a bool attribute with a default.
func (a Attrs) Bool(key string, def bool) bool {
	if a == nil {
		return def
	}
	if v, ok := a[key]; ok {
		return v.(bool)
	}
	return def
}

// String fetches a string attribute with a default.
func (a Attrs) String(key, def string) string {
	if a == nil {
		return def
	}
	if v, ok := a[key]; ok {
		return v.(string)
	}
	return def
}

// Ints fetches an []int attribute; nil when missing.
func (a Attrs) Ints(key string) []int {
	if a == nil {
		return nil
	}
	if v, ok := a[key]; ok {
		return v.([]int)
	}
	return nil
}

// Keys returns attribute keys in sorted order for deterministic printing
// and serialization.
func (a Attrs) Keys() []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// OpPattern classifies operators for the fusion pass, following the
// TVM-style taxonomy the paper builds on.
type OpPattern int

const (
	// PatternElemWise ops map each input element to one output element.
	PatternElemWise OpPattern = iota
	// PatternBroadcast ops are element-wise after broadcasting.
	PatternBroadcast
	// PatternInjective ops are one-to-one data movements (reshape, take).
	PatternInjective
	// PatternOutFusable ops (matmul, conv) accept fused element-wise
	// epilogues but cannot be fused into other ops.
	PatternOutFusable
	// PatternOpaque ops never fuse (control ops, allocation dialect,
	// data-dependent shapes — the §4.2 fusion policy).
	PatternOpaque
)

func (p OpPattern) String() string {
	switch p {
	case PatternElemWise:
		return "elemwise"
	case PatternBroadcast:
		return "broadcast"
	case PatternInjective:
		return "injective"
	case PatternOutFusable:
		return "out-fusable"
	case PatternOpaque:
		return "opaque"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// ShapeFuncMode is the paper's three-way shape-function classification
// (§4.2).
type ShapeFuncMode int

const (
	// ShapeDataIndependent: output shape depends only on input shapes.
	ShapeDataIndependent ShapeFuncMode = iota
	// ShapeDataDependent: output shape depends on input values (arange,
	// unique).
	ShapeDataDependent
	// ShapeUpperBound: the shape function yields an upper bound; the kernel
	// returns the precise shape with its output (nms).
	ShapeUpperBound
)

func (m ShapeFuncMode) String() string {
	switch m {
	case ShapeDataIndependent:
		return "data-independent"
	case ShapeDataDependent:
		return "data-dependent"
	case ShapeUpperBound:
		return "upper-bound"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// DimsRule states a data-independent operator's output dims as a function
// of its input dims and attrs: the one shape rule behind both the type
// relation (§4.1) and the runtime shape function (§4.2). At compile time
// an input dim may be Any; the rule propagates Any, keeps a symbolic
// identity where the result is that same unknown extent, and relaxes a
// check it cannot decide. At run time every dim is static, the same rule
// computes the output shape, and the checks it relaxed fail there: gradual
// typing's residual checks. A rule must not write its inputs.
type DimsRule func(in [][]Dim, attrs Attrs) ([]Dim, error)

// ShapeFunc computes an operator's output shape at runtime. A
// data-independent operator states it as its Dims rule; a data-dependent
// or upper-bound one, which reads input values or bounds what its kernel
// reports, as Fn. The compiler embeds these computations into the program
// as first-class instructions, so they run on the CPU domain per the §4.4
// placement rules.
type ShapeFunc struct {
	Mode ShapeFuncMode
	Dims DimsRule
	Fn   func(inShapes []tensor.Shape, inVals []*tensor.Tensor, attrs Attrs) ([]tensor.Shape, error)
}

// EvalFunc executes an operator's kernel over concrete tensors. It is the
// semantic ground truth; codegen wraps and specializes these. It follows
// the destination-passing convention: a nil out allocates the result; an
// operator with a destination form writes out and returns it when out has
// the result's dtype and precise shape — the buffer the §4.3 memory
// planner allocated ahead of time — and allocates otherwise (an
// upper-bound plan larger than the precise shape). An operator without a
// destination form names the parameter _ and always allocates.
type EvalFunc func(args []*tensor.Tensor, attrs Attrs, out *tensor.Tensor) (*tensor.Tensor, error)

// TypeRel is an operator type relation (§4.1): it computes the output type
// from input types, propagating Any per the operator's rules, or reports a
// compile-time type error. Relations must relax (not reject) constraints
// that cannot be decided while a participating dimension is Any; those
// deferred checks happen at runtime in the shape function / kernel.
type TypeRel func(args []Type, attrs Attrs) (Type, error)

// ruleRel derives a data-independent operator's type relation from its
// dims rule. Every argument must be a tensor type; dtype, when set, checks
// the arguments' dtypes and attrs and names the result's dtype, which is
// otherwise the first argument's.
func ruleRel(name string, rule DimsRule, dtype func(ts []*TensorType, attrs Attrs) (tensor.DType, error)) TypeRel {
	return func(args []Type, attrs Attrs) (Type, error) {
		ts, in := make([]*TensorType, len(args)), make([][]Dim, len(args))
		for i, a := range args {
			t, ok := a.(*TensorType)
			if !ok {
				return nil, fmt.Errorf("ir: %s requires tensor arguments, got %s", name, a)
			}
			ts[i], in[i] = t, t.Dims
		}
		var dt tensor.DType
		var err error
		if dtype == nil {
			dt = ts[0].DType
		} else if dt, err = dtype(ts, attrs); err != nil {
			return nil, err
		}
		dims, err := rule(in, attrs)
		if err != nil {
			return nil, err
		}
		return &TensorType{Dims: dims, DType: dt}, nil
	}
}

// sameDims is the rule of an operator whose result has its first
// argument's dims.
func sameDims(in [][]Dim, _ Attrs) ([]Dim, error) { return in[0], nil }

// attrDType reads the dtype attr, the result dtype of cast and zeros.
func attrDType(_ []*TensorType, attrs Attrs) (tensor.DType, error) {
	return tensor.ParseDType(attrs.String("dtype", "float32"))
}

// fixedDType names a result dtype that does not depend on the arguments'.
func fixedDType(dt tensor.DType) func([]*TensorType, Attrs) (tensor.DType, error) {
	return func([]*TensorType, Attrs) (tensor.DType, error) { return dt, nil }
}

// Op is a registered primitive operator.
type Op struct {
	Name    string
	Rel     TypeRel
	Shape   ShapeFunc
	Eval    EvalFunc
	Pattern OpPattern
	// NumInputs < 0 means variadic.
	NumInputs int
	// InPlace marks an operator whose result aliases (and mutates) its
	// first argument — the append-style cache writes of autoregressive
	// decoding. The memory planner routes the first argument as the
	// invoke_mut destination instead of allocating a fresh buffer, and
	// treats that argument as escaping so kill insertion and storage
	// coalescing never recycle a buffer a later alias still reads. The
	// first argument must be a planner-owned buffer (e.g. a state_zeros
	// result or a value threaded through a loop), never an ir.Constant:
	// constants are shared by reference across sessions.
	InPlace bool
}

var (
	registryMu sync.RWMutex
	registry   = map[string]*Op{}
)

// RegisterOp adds an operator to the global registry; duplicate names panic
// (registration happens in package init, so a duplicate is a programming
// error).
func RegisterOp(op *Op) *Op {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[op.Name]; dup {
		panic(fmt.Sprintf("ir: duplicate operator %q", op.Name))
	}
	registry[op.Name] = op
	return op
}

// GetOp looks up an operator by name.
func GetOp(name string) (*Op, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	op, ok := registry[name]
	return op, ok
}

// MustGetOp looks up an operator, panicking when absent.
func MustGetOp(name string) *Op {
	op, ok := GetOp(name)
	if !ok {
		panic(fmt.Sprintf("ir: unknown operator %q", name))
	}
	return op
}

// OpNames returns all registered operator names, sorted.
func OpNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
