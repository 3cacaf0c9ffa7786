package passes

import (
	"fmt"

	"nimble/internal/ir"
)

// PlacementStats reports the outcome of device placement.
type PlacementStats struct {
	// CopiesInserted counts device_copy operations added.
	CopiesInserted int
	// CPUVars and TargetVars count variables resolved to each domain when
	// the target is not the CPU.
	CPUVars, TargetVars int
}

// PlaceDevices is the §4.4 heterogeneous device placement pass. It runs a
// unification-based analysis over the explicitly allocated IR: every
// variable belongs to a DeviceDomain tracked by a union-find structure;
// placement rules constrain domains (shape_of and shape functions are CPU,
// allocations carry their device, invoke_mut arguments share the kernel's
// domain); unconstrained domains default to the compilation target; and a
// device_copy is inserted exactly where a value's resolved domain differs
// from its consumer's requirement. It reports into Stats.Placement.
func PlaceDevices(target ir.Device) Pass {
	return Pass{
		Name: "place-devices",
		Run: func(mod *ir.Module, st *Stats) error {
			return mapFuncs(mod, func(name string, fn *ir.Function) (ir.Expr, error) {
				p := newPlacer(target, &st.Placement)
				body, err := rewriteChains(fn.Body, p.placeChain)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				p.tally()
				return body, nil
			})
		},
	}
}

// domain is a union-find node carrying the resolved device of its class.
type domain struct {
	parent *domain
	dev    ir.Device
}

func (d *domain) find() *domain {
	for d.parent != nil {
		if d.parent.parent != nil {
			d.parent = d.parent.parent // path halving
		}
		d = d.parent
	}
	return d
}

// union merges two domains; conflicting concrete devices are an internal
// error (callers must check and insert copies instead of unioning).
func union(a, b *domain) error {
	ra, rb := a.find(), b.find()
	if ra == rb {
		return nil
	}
	if !ra.dev.IsUnknown() && !rb.dev.IsUnknown() && ra.dev != rb.dev {
		return fmt.Errorf("passes: unioning conflicting device domains %s and %s", ra.dev, rb.dev)
	}
	if ra.dev.IsUnknown() {
		ra.dev = rb.dev
	}
	rb.parent = ra
	return nil
}

type placer struct {
	target  ir.Device
	stats   *PlacementStats
	domains map[*ir.Var]*domain
	fresh   int
}

func newPlacer(target ir.Device, stats *PlacementStats) *placer {
	return &placer{target: target, stats: stats, domains: map[*ir.Var]*domain{}}
}

func (p *placer) domainOf(v *ir.Var) *domain {
	d, ok := p.domains[v]
	if !ok {
		d = &domain{}
		p.domains[v] = d
	}
	return d
}

// deviceOf resolves the current device of an atomic expression; constants
// and globals are free (they materialize wherever consumed).
func (p *placer) deviceOf(e ir.Expr) ir.Device {
	if v, ok := e.(*ir.Var); ok {
		return p.domainOf(v).find().dev
	}
	return ir.Device{}
}

// Resolved returns the final device for a variable (target when the
// analysis left it unconstrained).
func (p *placer) resolved(v *ir.Var) ir.Device {
	d := p.domainOf(v).find().dev
	if d.IsUnknown() {
		return p.target
	}
	return d
}

func (p *placer) tally() {
	for v := range p.domains {
		if p.resolved(v).Type == ir.DevCPU && p.target.Type != ir.DevCPU {
			p.stats.CPUVars++
		} else {
			p.stats.TargetVars++
		}
	}
}

// requireOn returns an expression for `arg` living on device want, inserting
// a device_copy binding into out when the resolved domain conflicts. An
// unconstrained variable is pinned to want instead (bidirectional
// propagation without a copy).
func (p *placer) requireOn(arg ir.Expr, want ir.Device, out *[]ir.Binding) ir.Expr {
	v, ok := arg.(*ir.Var)
	if !ok {
		return arg // constants/globals materialize on the consumer's device
	}
	root := p.domainOf(v).find()
	if root.dev.IsUnknown() {
		root.dev = want
		return arg
	}
	if root.dev == want {
		return arg
	}
	// Mandatory cross-device copy.
	p.fresh++
	cv := ir.NewVar(fmt.Sprintf("copy%d", p.fresh), nil)
	c := ir.CallOpAttrs(ir.OpDeviceCopy, ir.Attrs{
		"src_device": int(root.dev.Type), "src_id": root.dev.ID,
		"dst_device": int(want.Type), "dst_id": want.ID,
	}, v)
	c.SetCheckedType(v.CheckedType())
	*out = append(*out, ir.Binding{Var: cv, Value: c})
	p.domainOf(cv).find().dev = want
	p.stats.CopiesInserted++
	return cv
}

func (p *placer) placeChain(e ir.Expr) (ir.Expr, error) {
	bs, result := ir.SplitChain(e)
	cpu := ir.CPU(0)
	var out []ir.Binding
	for _, b := range bs {
		call, op := ir.OpCall(b.Value)
		if op == nil {
			// Non-op values: unify the bound var with a used var when the
			// value is itself a var (aliasing); otherwise leave free.
			if call == nil {
				if v, ok := b.Value.(*ir.Var); ok {
					if err := union(p.domainOf(b.Var), p.domainOf(v)); err != nil {
						return nil, err
					}
				}
			}
			out = append(out, b)
			continue
		}
		switch op.Name {
		case ir.OpShapeOf:
			// "Defaults to the CPU domain because we can access a Tensor's
			// shape regardless of which device it is placed on" — the input
			// is unconstrained, the output lives on CPU.
			p.domainOf(b.Var).find().dev = cpu
			out = append(out, b)

		case ir.OpInvokeShapeFunc:
			// Shape functions run on CPU: inputs and outputs are CPU.
			args := make([]ir.Expr, len(call.Args))
			args[0] = call.Args[0] // the OpRef
			changed := false
			for i := 1; i < len(call.Args); i++ {
				args[i] = p.requireOn(call.Args[i], cpu, &out)
				changed = changed || args[i] != call.Args[i]
			}
			p.domainOf(b.Var).find().dev = cpu
			if changed {
				nc := ir.NewCall(call.Callee, args, call.Attrs)
				nc.SetCheckedType(call.CheckedType())
				out = append(out, ir.Binding{Var: b.Var, Value: nc})
			} else {
				out = append(out, b)
			}

		case ir.OpAllocStorage:
			dev := ir.Device{Type: ir.DeviceType(call.Attrs.Int("device", int(p.target.Type))), ID: call.Attrs.Int("device_id", 0)}
			p.domainOf(b.Var).find().dev = dev
			// A dynamic size argument is a CPU shape tensor.
			if len(call.Args) == 1 {
				args := []ir.Expr{p.requireOn(call.Args[0], cpu, &out)}
				if args[0] != call.Args[0] {
					nc := ir.NewCall(call.Callee, args, call.Attrs)
					nc.SetCheckedType(call.CheckedType())
					out = append(out, ir.Binding{Var: b.Var, Value: nc})
					continue
				}
			}
			out = append(out, b)

		case ir.OpAllocTensor, ir.OpAllocTensorReg:
			// The tensor lives where its storage lives.
			if sv, ok := call.Args[0].(*ir.Var); ok {
				if err := union(p.domainOf(b.Var), p.domainOf(sv)); err != nil {
					return nil, err
				}
			}
			if op.Name == ir.OpAllocTensorReg && len(call.Args) == 2 {
				// The shape argument is CPU data.
				_ = p.requireOn(call.Args[1], cpu, &out)
			}
			out = append(out, b)

		case ir.OpInvokeMut:
			// All arguments used in the invoke_mut must share the kernel's
			// domain, which is dictated by the output buffer's allocation.
			dev := p.target
			if buf, ok := call.Args[len(call.Args)-1].(*ir.Var); ok {
				if d := p.domainOf(buf).find().dev; !d.IsUnknown() {
					dev = d
				}
			}
			args := make([]ir.Expr, len(call.Args))
			args[0] = call.Args[0]
			changed := false
			for i := 1; i < len(call.Args); i++ {
				args[i] = p.requireOn(call.Args[i], dev, &out)
				changed = changed || args[i] != call.Args[i]
			}
			p.domainOf(b.Var).find().dev = dev
			attrs := mergeAttrs(call.Attrs, ir.Attrs{"device": int(dev.Type), "device_id": dev.ID})
			nc := ir.NewCall(call.Callee, args, attrs)
			nc.SetCheckedType(call.CheckedType())
			_ = changed
			out = append(out, ir.Binding{Var: b.Var, Value: nc})

		case ir.OpDeviceCopy:
			dst := ir.Device{Type: ir.DeviceType(call.Attrs.Int("dst_device", int(p.target.Type))), ID: call.Attrs.Int("dst_id", 0)}
			p.domainOf(b.Var).find().dev = dst
			out = append(out, b)

		case ir.OpKill:
			out = append(out, b)

		default:
			// Unmanifested primitive call (pipelines without ManifestAlloc):
			// run it on the target device.
			args := make([]ir.Expr, len(call.Args))
			for i, a := range call.Args {
				args[i] = p.requireOn(a, p.target, &out)
			}
			p.domainOf(b.Var).find().dev = p.target
			nc := ir.NewCall(call.Callee, args, call.Attrs)
			nc.SetCheckedType(call.CheckedType())
			out = append(out, ir.Binding{Var: b.Var, Value: nc})
		}
	}

	// Branch conditions are read by the interpreter on the host; tail Ifs
	// were already processed by rewriteChains.
	return ir.BuildChain(out, result), nil
}
