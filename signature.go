package nimble

import (
	"fmt"
	"strings"

	"nimble/internal/ir"
)

// TypeKind names the shape of a TypeInfo, chosen to read well in JSON
// (the /models endpoint of cmd/nimble-serve serializes these verbatim).
type TypeKind string

const (
	// KindTensorType is an n-dimensional tensor with dtype and (possibly
	// dynamic) shape.
	KindTensorType TypeKind = "tensor"
	// KindADTType is an algebraic data type; ADT describes its
	// constructors.
	KindADTType TypeKind = "adt"
	// KindTupleType is a fixed-arity tuple; Fields describes the elements.
	KindTupleType TypeKind = "tuple"
	// KindFuncType is a function/closure type (not invocable over HTTP).
	KindFuncType TypeKind = "func"
	// KindUnknownType marks a type the program cannot describe (e.g. an
	// executable loaded without its compile-time metadata).
	KindUnknownType TypeKind = "unknown"
)

// DimAny is the wildcard extent in TypeInfo.Shape: the dimension is
// resolved at runtime (the paper's Any dimension).
const DimAny = ir.DimAny

// TypeInfo is the public, serializable description of one IR type.
type TypeInfo struct {
	Kind TypeKind `json:"kind"`
	// DType is the element type name ("float32", "int64", ...) for tensors.
	DType string `json:"dtype,omitempty"`
	// Shape lists tensor extents; DimAny (-1) marks a dynamic dimension.
	// A nil shape on a tensor is a scalar.
	Shape []int `json:"shape,omitempty"`
	// ADT describes an algebraic data type's constructors.
	ADT *ADTInfo `json:"adt,omitempty"`
	// Fields describes tuple elements.
	Fields []TypeInfo `json:"fields,omitempty"`
}

// ADTInfo describes an algebraic data type. Nested references to the same
// type (a List's Cons carrying a List) are broken by name: the inner
// reference repeats Name with nil Constructors.
type ADTInfo struct {
	Name         string     `json:"name"`
	Constructors []CtorInfo `json:"constructors,omitempty"`
}

// CtorInfo describes one ADT constructor: its name, the runtime tag used
// to build values (ADTValue(tag, ...)), and its field types.
type CtorInfo struct {
	Name   string     `json:"name"`
	Tag    int        `json:"tag"`
	Fields []TypeInfo `json:"fields,omitempty"`
}

// EntrySignature is the introspected signature of one entry function,
// derived from compile-time type information. It is what lets generic
// callers (the HTTP layer, benchmark harnesses) build arguments without a
// per-model adapter.
type EntrySignature struct {
	Name   string     `json:"name"`
	Params []TypeInfo `json:"params"`
	Result TypeInfo   `json:"result"`
	// RowSeparable records the compiler's proof that the entry maps input
	// rows to output rows independently — the property that makes
	// micro-batching a semantics-preserving rewrite. Service coalesces
	// queued single-tensor calls to row-separable entries.
	RowSeparable bool `json:"row_separable,omitempty"`
}

func (t TypeInfo) String() string {
	switch t.Kind {
	case KindTensorType:
		if len(t.Shape) == 0 {
			return fmt.Sprintf("Tensor[(), %s]", t.DType)
		}
		parts := make([]string, len(t.Shape))
		for i, d := range t.Shape {
			if d == DimAny {
				parts[i] = "Any"
			} else {
				parts[i] = fmt.Sprintf("%d", d)
			}
		}
		return fmt.Sprintf("Tensor[(%s), %s]", strings.Join(parts, ", "), t.DType)
	case KindADTType:
		if t.ADT != nil {
			return t.ADT.Name
		}
		return "adt"
	case KindTupleType:
		parts := make([]string, len(t.Fields))
		for i, f := range t.Fields {
			parts[i] = f.String()
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case KindFuncType:
		return "func"
	}
	return "?"
}

func (s EntrySignature) String() string {
	parts := make([]string, len(s.Params))
	for i, p := range s.Params {
		parts[i] = p.String()
	}
	return fmt.Sprintf("%s(%s) -> %s", s.Name, strings.Join(parts, ", "), s.Result)
}

// typeInfoOf converts an IR type into its public description. seen guards
// recursive ADTs: a type definition already being described is referenced
// by name only.
func typeInfoOf(t ir.Type, seen map[*ir.TypeDef]bool) TypeInfo {
	switch n := t.(type) {
	case *ir.TensorType:
		info := TypeInfo{Kind: KindTensorType, DType: n.DType.String()}
		for _, d := range n.Dims {
			if d.IsAny() {
				info.Shape = append(info.Shape, DimAny)
			} else {
				info.Shape = append(info.Shape, d.Value)
			}
		}
		return info
	case *ir.ADTType:
		def := n.Def
		if seen[def] {
			return TypeInfo{Kind: KindADTType, ADT: &ADTInfo{Name: def.Name}}
		}
		seen[def] = true
		defer delete(seen, def)
		adt := &ADTInfo{Name: def.Name}
		for _, c := range def.Constructors {
			ci := CtorInfo{Name: c.Name, Tag: c.Tag}
			for _, f := range c.Fields {
				ci.Fields = append(ci.Fields, typeInfoOf(f, seen))
			}
			adt.Constructors = append(adt.Constructors, ci)
		}
		return TypeInfo{Kind: KindADTType, ADT: adt}
	case *ir.TupleType:
		info := TypeInfo{Kind: KindTupleType}
		for _, f := range n.Fields {
			info.Fields = append(info.Fields, typeInfoOf(f, seen))
		}
		return info
	case *ir.FuncType:
		return TypeInfo{Kind: KindFuncType}
	}
	return TypeInfo{Kind: KindUnknownType}
}
