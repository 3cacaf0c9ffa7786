package passes

import (
	"nimble/internal/ir"
)

// CoalesceStats reports the effect of storage coalescing for the §6.3
// memory-planning study.
type CoalesceStats struct {
	// Before and After count static alloc_storage bindings.
	Before, After int
	// BytesBefore and BytesAfter sum static storage sizes; the difference
	// between After/Before and the TVM-style whole-graph-liveness optimum is
	// the "up to 8% more memory footprint" the paper concedes.
	BytesBefore, BytesAfter int
}

// Reuses returns the number of allocations eliminated by reuse.
func (s *CoalesceStats) Reuses() int { return s.Before - s.After }

// CoalesceStorage is the §4.3 storage-coalescing optimization: it walks each
// explicitly allocated chain, and when a statically sized alloc_storage is
// requested while a previously killed storage of sufficient size (same
// device) is free, the allocation is elided and the free storage reused.
// Dynamically sized storage cannot be coalesced statically; the VM's
// runtime storage pool handles that case. It reports into Stats.Coalesce.
func CoalesceStorage() Pass {
	return Pass{
		Name: "coalesce-storage",
		Run: func(mod *ir.Module, st *Stats) error {
			return mapFuncs(mod, func(_ string, fn *ir.Function) (ir.Expr, error) {
				return rewriteChains(fn.Body, func(e ir.Expr) (ir.Expr, error) {
					return coalesceChain(e, &st.Coalesce), nil
				})
			})
		},
	}
}

type freeStorage struct {
	v      *ir.Var
	size   int
	device int
}

func coalesceChain(e ir.Expr, stats *CoalesceStats) ir.Expr {
	bs, result := ir.SplitChain(e)

	// storageOf maps a buffer (alloc_tensor result) to its storage var;
	// sizes maps storage vars to their byte size.
	storageOf := map[*ir.Var]*ir.Var{}
	sizes := map[*ir.Var]int{}
	devices := map[*ir.Var]int{}
	// bufferOf maps an invoke_mut result var back to its destination buffer.
	bufferOf := map[*ir.Var]*ir.Var{}
	// subst redirects eliminated storage vars to their reused replacement.
	subst := map[*ir.Var]*ir.Var{}
	var free []freeStorage

	resolve := func(v *ir.Var) *ir.Var {
		for {
			next, ok := subst[v]
			if !ok {
				return v
			}
			v = next
		}
	}

	var out []ir.Binding
	for _, b := range bs {
		call, op := ir.OpCall(b.Value)
		if op == nil {
			out = append(out, b)
			continue
		}
		switch op.Name {
		case ir.OpAllocStorage:
			size := call.Attrs.Int("size", -1)
			dev := call.Attrs.Int("device", 0)
			if size < 0 || len(call.Args) > 0 {
				// Dynamic size: leave for the runtime pool.
				out = append(out, b)
				continue
			}
			stats.Before++
			stats.BytesBefore += size
			reused := -1
			for i, f := range free {
				if f.device == dev && f.size >= size {
					reused = i
					break
				}
			}
			if reused >= 0 {
				subst[b.Var] = free[reused].v
				free = append(free[:reused], free[reused+1:]...)
				// Binding dropped: downstream alloc_tensor uses the freed
				// storage through subst.
				continue
			}
			sizes[b.Var] = size
			devices[b.Var] = dev
			stats.After++
			stats.BytesAfter += size
			out = append(out, b)

		case ir.OpAllocTensor:
			if len(call.Args) == 1 {
				if sv, ok := call.Args[0].(*ir.Var); ok {
					target := resolve(sv)
					storageOf[b.Var] = target
					if target != sv {
						nc := ir.CallOpAttrs(ir.OpAllocTensor, call.Attrs, target)
						nc.SetCheckedType(call.CheckedType())
						out = append(out, ir.Binding{Var: b.Var, Value: nc})
						continue
					}
				}
			}
			out = append(out, b)

		case ir.OpInvokeMut:
			if len(call.Args) >= 2 {
				if bufVar, ok := call.Args[len(call.Args)-1].(*ir.Var); ok {
					bufferOf[b.Var] = bufVar
				}
			}
			out = append(out, b)

		case ir.OpKill:
			if len(call.Args) == 1 {
				if tv, ok := call.Args[0].(*ir.Var); ok {
					buf := bufferOf[tv]
					if buf == nil {
						buf = tv
					}
					if sv, ok := storageOf[buf]; ok {
						if sz, sized := sizes[sv]; sized {
							free = append(free, freeStorage{v: sv, size: sz, device: devices[sv]})
						}
					}
				}
			}
			out = append(out, b)

		default:
			out = append(out, b)
		}
	}
	return ir.BuildChain(out, result)
}
