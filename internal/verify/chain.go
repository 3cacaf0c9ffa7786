package verify

import (
	"nimble/internal/ir"
	"nimble/internal/tensor"
)

// This file checks the explicit-allocation dialect (post manifest-alloc):
// kill safety, storage-coalescing overlap, loop-carried buffers, and
// planned buffer sizes. The analysis deliberately does not share code with
// internal/passes — it re-derives aliasing and liveness from first
// principles so a planner bug and a verifier bug have to coincide to slip
// through.

// chainScope carries allocation facts across nested let-chains (an If
// branch can write into a buffer its parent allocated). Lookups walk the
// parent links; writes always land in the innermost scope.
type chainScope struct {
	parent *chainScope
	// storageSize maps alloc_storage results to their static byte size
	// (sizeDynamic when runtime-sized).
	storageSize map[*ir.Var]int
	// bufStorage maps alloc_tensor(_reg) results to their storage var.
	bufStorage map[*ir.Var]*ir.Var
	// bufBytes maps buffers to their static byte extent (sizeDynamic when
	// runtime-shaped).
	bufBytes map[*ir.Var]int
	// roots maps a var to the allocation roots it may alias. A var absent
	// from every scope is its own root (params, fresh non-buffer values).
	roots map[*ir.Var][]*ir.Var
}

const sizeDynamic = -1

func newChainScope(parent *chainScope) *chainScope {
	return &chainScope{
		parent:      parent,
		storageSize: map[*ir.Var]int{},
		bufStorage:  map[*ir.Var]*ir.Var{},
		bufBytes:    map[*ir.Var]int{},
		roots:       map[*ir.Var][]*ir.Var{},
	}
}

func (s *chainScope) lookupStorageSize(v *ir.Var) (int, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if sz, ok := sc.storageSize[v]; ok {
			return sz, true
		}
	}
	return 0, false
}

func (s *chainScope) lookupBufStorage(v *ir.Var) (*ir.Var, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if sv, ok := sc.bufStorage[v]; ok {
			return sv, true
		}
	}
	return nil, false
}

func (s *chainScope) lookupBufBytes(v *ir.Var) (int, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if n, ok := sc.bufBytes[v]; ok {
			return n, true
		}
	}
	return 0, false
}

// rootsOf resolves a var to its allocation roots. Unknown vars root
// themselves: a function parameter is a caller-owned buffer in its own
// right.
func (s *chainScope) rootsOf(v *ir.Var) []*ir.Var {
	for sc := s; sc != nil; sc = sc.parent {
		if rs, ok := sc.roots[v]; ok {
			return rs
		}
	}
	return []*ir.Var{v}
}

func (s *chainScope) rootsOfAll(vs []*ir.Var) []*ir.Var {
	seen := map[*ir.Var]bool{}
	var out []*ir.Var
	for _, v := range vs {
		for _, r := range s.rootsOf(v) {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// tenantEvent records one alloc_tensor(_reg) claiming a storage region.
type tenantEvent struct {
	idx     int
	storage *ir.Var
	buf     *ir.Var
}

// checkChain runs the memory-dialect checks over one let-chain, recursing
// into nested chains (If branches, Match clauses, function literals) with
// the enclosing allocation facts visible.
func (c *moduleChecker) checkChain(e ir.Expr, fnName string, parent *chainScope) {
	s := newChainScope(parent)
	bs, result := ir.SplitChain(e)

	uses := make([][]*ir.Var, len(bs))
	for i, b := range bs {
		uses[i] = ir.FreeVars(b.Value)
	}
	resultUses := ir.FreeVars(result)

	// Pass A: establish allocation facts and alias roots in binding order,
	// checking per-binding structural invariants (mem.dest, static
	// mem.buffer-size) and recursing into nested chains.
	var tenants []tenantEvent
	kills := map[*ir.Var][]int{} // allocation root -> kill binding indexes
	killVarAt := map[int]*ir.Var{}
	for i, b := range bs {
		call, op := ir.OpCall(b.Value)
		if op == nil {
			// If/Match/Tuple/projection/bare-var values and calls to global
			// functions or closures may all alias their operands; a global
			// call can even return its own argument.
			c.recurseNested(b.Value, fnName, s)
			s.roots[b.Var] = s.rootsOfAll(uses[i])
			continue
		}
		pos := "let %" + b.Var.Name
		switch op.Name {
		case ir.OpAllocStorage:
			size := call.Attrs.Int("size", -1)
			if size < 0 || len(call.Args) > 0 {
				size = sizeDynamic
			}
			s.storageSize[b.Var] = size
			s.roots[b.Var] = []*ir.Var{b.Var}

		case ir.OpAllocTensor, ir.OpAllocTensorReg:
			s.roots[b.Var] = []*ir.Var{b.Var}
			s.bufBytes[b.Var] = sizeDynamic
			sv, _ := call.Args[0].(*ir.Var)
			if sv != nil {
				s.bufStorage[b.Var] = sv
				tenants = append(tenants, tenantEvent{idx: i, storage: sv, buf: b.Var})
			}
			if op.Name == ir.OpAllocTensor {
				shape := tensor.Shape(call.Attrs.Ints("shape"))
				dt, err := tensor.ParseDType(call.Attrs.String("dtype", "float32"))
				if err != nil {
					break // type.op catches the malformed attr
				}
				bytes := shape.NumElements() * dt.Size()
				offset := call.Attrs.Int("offset", 0)
				s.bufBytes[b.Var] = bytes
				if sv != nil {
					if sz, ok := s.lookupStorageSize(sv); ok && sz != sizeDynamic && offset+bytes > sz {
						c.report("mem.buffer-size", pos,
							"alloc_tensor needs bytes [%d, %d) of storage %%%s, which holds only %d",
							offset, offset+bytes, sv.Name, sz)
					}
				}
			}

		case ir.OpInvokeMut:
			c.checkInvokeMut(call, pos, s)
			nOut := call.Attrs.Int("num_outputs", 1)
			if nOut >= 1 && nOut < len(call.Args) {
				s.roots[b.Var] = s.rootsOfAll(varsOf(call.Args[len(call.Args)-nOut:]))
			} else {
				s.roots[b.Var] = []*ir.Var{b.Var}
			}

		case ir.OpKill:
			if len(call.Args) == 1 {
				if kv, ok := call.Args[0].(*ir.Var); ok {
					killVarAt[i] = kv
					for _, r := range s.rootsOf(kv) {
						kills[r] = append(kills[r], i)
					}
				}
			}
			s.roots[b.Var] = nil

		case ir.OpReshapeTensor:
			// Shares the source's storage without moving data.
			if len(call.Args) > 0 {
				s.roots[b.Var] = s.rootsOfAll(varsOf(call.Args[:1]))
			}

		case ir.OpDeviceCopy, ir.OpShapeOf, ir.OpInvokeShapeFunc:
			// Clones / derives fresh data; no aliasing.
			s.roots[b.Var] = []*ir.Var{b.Var}

		default:
			if op.Eval != nil {
				// An ordinary kernel call allocates its own output.
				s.roots[b.Var] = []*ir.Var{b.Var}
			} else {
				s.roots[b.Var] = s.rootsOfAll(uses[i])
			}
		}
	}
	c.recurseNested(result, fnName, s)

	// Pass B: liveness over roots. Kill bindings themselves are not uses.
	rootLastUse := map[*ir.Var]int{}
	escapes := map[*ir.Var]bool{}
	for i, b := range bs {
		if killVarAt[i] != nil {
			continue
		}
		consuming := consumingUse(b.Value)
		aliased := inPlaceAliasArg(b.Value)
		for _, v := range uses[i] {
			for _, r := range s.rootsOf(v) {
				rootLastUse[r] = i
				if !consuming || v == aliased {
					escapes[r] = true
				}
			}
		}
	}
	resultRoots := map[*ir.Var]bool{}
	for _, r := range s.rootsOfAll(resultUses) {
		resultRoots[r] = true
	}
	loop := selfTailCall(result, fnName)

	// Pass C: kill safety. A kill recycles its buffer's storage, so every
	// root it resolves to must be consumingly dead at that point.
	for i := range bs {
		kv := killVarAt[i]
		if kv == nil {
			continue
		}
		pos := "let %" + bs[i].Var.Name
		for _, r := range s.rootsOf(kv) {
			switch {
			case loop && resultRoots[r]:
				c.report("mem.loop-carried", pos,
					"kill of %%%s (root %%%s) which is threaded through the backward self-call: its storage would be recycled across the loop edge",
					kv.Name, r.Name)
			case resultRoots[r]:
				c.report("ssa.use-after-kill", pos,
					"%%%s (root %%%s) is killed but escapes in the chain result",
					kv.Name, r.Name)
			case rootLastUse[r] > i:
				c.report("ssa.use-after-kill", pos,
					"%%%s (root %%%s) is used at a later binding after this kill",
					kv.Name, r.Name)
			case len(kills[r]) > 1 && kills[r][0] != i:
				c.report("ssa.use-after-kill", pos,
					"%%%s (root %%%s) is killed more than once", kv.Name, r.Name)
			case escapes[r]:
				c.report("mem.kill-consuming", pos,
					"kill of %%%s whose root %%%s has a non-consuming (aliasing) use: a later alias would read recycled storage",
					kv.Name, r.Name)
			}
		}
	}

	// Pass D: storage tenancy. A second alloc_tensor on a storage region is
	// only sound when every earlier tenant is provably dead first — the
	// exact contract storage coalescing relies on.
	for ti, t := range tenants {
		for _, prev := range tenants[:ti] {
			if prev.storage != t.storage {
				continue
			}
			pos := "let %" + t.buf.Name
			pr := prev.buf
			switch {
			case loop && resultRoots[pr]:
				c.report("mem.loop-carried", pos,
					"storage %%%s is recycled for %%%s while prior tenant %%%s is threaded through the backward self-call",
					t.storage.Name, t.buf.Name, pr.Name)
			case !killedBefore(kills[pr], t.idx):
				c.report("mem.coalesce-overlap", pos,
					"storage %%%s is reused for %%%s while prior tenant %%%s was never killed",
					t.storage.Name, t.buf.Name, pr.Name)
			case rootLastUse[pr] > t.idx || resultRoots[pr]:
				c.report("mem.coalesce-overlap", pos,
					"storage %%%s is reused for %%%s inside the live range of prior tenant %%%s",
					t.storage.Name, t.buf.Name, pr.Name)
			}
		}
	}
}

// checkInvokeMut validates one invoke_mut binding's destination discipline
// and planned size.
func (c *moduleChecker) checkInvokeMut(call *ir.Call, pos string, s *chainScope) {
	if len(call.Args) < 2 {
		c.report("mem.dest", pos, "invoke_mut needs (op, inputs..., out), got %d args", len(call.Args))
		return
	}
	target, ok := call.Args[0].(*ir.OpRef)
	if !ok {
		c.report("mem.dest", pos, "invoke_mut callee operand is %s, want OpRef", ir.ExprKind(call.Args[0]))
		return
	}
	nOut := call.Attrs.Int("num_outputs", 1)
	if nOut < 1 || nOut > len(call.Args)-1 {
		c.report("mem.dest", pos, "invoke_mut num_outputs %d out of range for %d args", nOut, len(call.Args))
		return
	}
	dests := call.Args[len(call.Args)-nOut:]
	for _, d := range dests {
		if _, isConst := d.(*ir.Constant); isConst {
			c.report("mem.dest", pos,
				"invoke_mut(%s) destination is a shared constant: in-place writes would corrupt every session",
				target.Op.Name)
		}
	}
	if target.Op.InPlace {
		if dests[0] != call.Args[1] {
			c.report("mem.dest", pos,
				"in-place operator %s must write its own first argument, but the destination is a different value",
				target.Op.Name)
		}
	}
	// Planned size: a statically shaped result must fit its planned buffer.
	if nOut == 1 && !target.Op.InPlace {
		tt, ok := call.CheckedType().(*ir.TensorType)
		if !ok {
			return
		}
		n, static := tt.NumElementsUpperBound()
		if !static {
			return
		}
		need := n * tt.DType.Size()
		if dv, ok := dests[0].(*ir.Var); ok {
			if have, known := s.lookupBufBytes(dv); known && have != sizeDynamic && need > have {
				c.report("mem.buffer-size", pos,
					"invoke_mut(%s) writes %d bytes into buffer %%%s planned at %d",
					target.Op.Name, need, dv.Name, have)
			}
		}
	}
}

// recurseNested descends into the sub-chains of a binding value or chain
// result with the enclosing allocation facts visible.
func (c *moduleChecker) recurseNested(e ir.Expr, fnName string, s *chainScope) {
	switch n := e.(type) {
	case *ir.If:
		c.checkChain(n.Then, fnName, s)
		c.checkChain(n.Else, fnName, s)
	case *ir.Match:
		for _, cl := range n.Clauses {
			c.checkChain(cl.Body, fnName, s)
		}
	case *ir.Function:
		c.checkChain(n.Body, fnName, s)
	}
}

func varsOf(es []ir.Expr) []*ir.Var {
	var out []*ir.Var
	for _, e := range es {
		if v, ok := e.(*ir.Var); ok {
			out = append(out, v)
		}
	}
	return out
}

func killedBefore(killIdxs []int, i int) bool {
	for _, k := range killIdxs {
		if k < i {
			return true
		}
	}
	return false
}

// selfTailCall reports whether the chain result re-enters the enclosing
// function — the IR form the bytecode compiler lowers to a backward Goto.
func selfTailCall(result ir.Expr, fnName string) bool {
	call, ok := result.(*ir.Call)
	if !ok {
		return false
	}
	gv, ok := call.Callee.(*ir.GlobalVar)
	return ok && gv.Name == fnName
}

// consumingUse mirrors the memory planner's classification of uses that
// only read their operands (see internal/passes); a buffer is killable only
// when every use is consuming. Re-stated here independently so the verifier
// checks the planner rather than trusting it.
func consumingUse(value ir.Expr) bool {
	_, op := ir.OpCall(value)
	if op == nil {
		return false
	}
	switch op.Name {
	case ir.OpInvokeMut, ir.OpShapeOf, ir.OpInvokeShapeFunc, ir.OpDeviceCopy, ir.OpKill:
		return true
	case ir.OpReshapeTensor, ir.OpAllocTensor, ir.OpAllocTensorReg, ir.OpAllocStorage:
		return false
	}
	return op.Eval != nil
}

// inPlaceAliasArg returns the input an in-place invoke_mut both reads and
// overwrites, or nil.
func inPlaceAliasArg(value ir.Expr) *ir.Var {
	call, op := ir.OpCall(value)
	if op == nil || op.Name != ir.OpInvokeMut || len(call.Args) < 2 {
		return nil
	}
	target, ok := call.Args[0].(*ir.OpRef)
	if !ok || !target.Op.InPlace {
		return nil
	}
	v, _ := call.Args[1].(*ir.Var)
	return v
}
