package nimble

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"nimble/internal/verify"
	"nimble/internal/vm"
)

// Program is a frozen compiled model: immutable bytecode, constants
// (weights), kernel table, and the compile-time entry signatures. A
// Program is safe to share — NewSession and Serve both execute over
// the same frozen artifact — and to serialize (Save/Load round-trips the
// platform-independent part; kernels relink from an identically compiled
// Program).
type Program struct {
	exe      *vm.Executable
	registry map[string]vm.PackedFunc
	entries  map[string]*EntrySignature
	names    []string // sorted entry names
	stats    CompileStats
	// unlinked marks a Program loaded without a kernel library (Load with
	// lib == nil): it can be inspected and disassembled but not executed.
	unlinked bool
}

// Entrypoints returns the signature of every entry function, sorted by
// name. For compiled programs the signatures carry full compile-time type
// information (parameter/result types, Any dimensions, ADT constructors,
// row-separability); for programs loaded without a library they degrade to
// name and arity.
func (p *Program) Entrypoints() []EntrySignature {
	out := make([]EntrySignature, 0, len(p.names))
	for _, n := range p.names {
		out = append(out, *p.entries[n])
	}
	return out
}

// Entry returns the signature of one entry function.
func (p *Program) Entry(name string) (EntrySignature, error) {
	sig, ok := p.entries[name]
	if !ok {
		return EntrySignature{}, unknownEntry(name)
	}
	return *sig, nil
}

// Stats reports what the compiler did.
func (p *Program) Stats() CompileStats { return p.stats }

// Verify re-checks the program's executable against the static invariant
// catalog (function-table consistency, register bounds and definedness,
// control-flow sanity, index validity, storage sizing). Compiled and loaded
// programs should always pass; a non-nil result is a *VerificationError
// (errors.Is ErrVerify) and means the artifact is unsafe to execute.
func (p *Program) Verify() error {
	return wrapVerify(verify.Executable(p.exe, "program"))
}

// Disassemble renders the program's bytecode, kernel table, and constant
// pool metadata. Each kernel shows how many InvokePacked instructions call
// it, so a kernel that several sites share stands out.
func (p *Program) Disassemble() string {
	sites := make([]int, len(p.exe.KernelNames))
	for _, in := range p.exe.Code {
		if in.Op == vm.OpInvokePacked {
			sites[in.Imm]++
		}
	}
	var b strings.Builder
	b.WriteString(p.exe.Disassemble())
	fmt.Fprintf(&b, "kernels (%d):\n", len(p.exe.KernelNames))
	for i, k := range p.exe.KernelNames {
		fmt.Fprintf(&b, "  #%-3d sites=%-3d %s\n", i, sites[i], k)
	}
	fmt.Fprintf(&b, "constants: %d\n", len(p.exe.Consts))
	return b.String()
}

// Save writes the program's platform-independent part (bytecode,
// constants, kernel names) to w, returning the byte count. Load restores
// it; kernel implementations relink from an identically compiled Program.
// Saving freezes the executable: the serialized artifact and the live one
// must agree forever after.
func (p *Program) Save(w io.Writer) (int64, error) {
	p.exe.Freeze()
	return p.exe.WriteTo(w)
}

// Load reads a program saved by Save. Kernel implementations are not
// serialized (they are platform-dependent closures), so lib must be a
// Program compiled from the same model, whose kernel registry and entry
// signatures are adopted. With lib == nil the program loads unlinked: it
// can be introspected and disassembled, but invoking it fails. Every error
// matches ErrBadInput (the bytes do not parse, or do not link against lib)
// or ErrVerify (the verifier rejected the executable); memory is allocated
// in proportion to the bytes read, not to the counts a header claims.
func Load(r io.Reader, lib *Program) (*Program, error) {
	exe, err := vm.ReadExecutable(r)
	if err != nil {
		// ErrBadInput is for the caller's status mapping; the reader's own
		// error, a *vm.VersionError among them, stays reachable for errors.As.
		return nil, fmt.Errorf("%w: reading executable: %w", ErrBadInput, err)
	}
	// A serialized executable is untrusted input: verify its function table,
	// register discipline, control flow, and indices before adopting it.
	if err := verify.Executable(exe, "loaded executable"); err != nil {
		return nil, wrapVerify(err)
	}
	p := &Program{exe: exe, entries: map[string]*EntrySignature{}}
	if lib != nil {
		if err := exe.LinkKernels(lib.registry); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadInput, err)
		}
		p.registry = lib.registry
	} else {
		p.unlinked = true
	}
	for _, f := range exe.Funcs {
		if isLiftedLambda(f.Name) {
			continue // compiler-lifted closures are not entry points
		}
		if lib != nil {
			if sig, ok := lib.entries[f.Name]; ok {
				p.entries[f.Name] = sig
				p.names = append(p.names, f.Name)
				continue
			}
		}
		// Arity-only signature: the executable does not carry types.
		sig := &EntrySignature{Name: f.Name, Result: TypeInfo{Kind: KindUnknownType}}
		for i := 0; i < f.NumParams; i++ {
			sig.Params = append(sig.Params, TypeInfo{Kind: KindUnknownType})
		}
		p.entries[f.Name] = sig
		p.names = append(p.names, f.Name)
	}
	sort.Strings(p.names)
	exe.Freeze()
	return p, nil
}

// isLiftedLambda matches exactly the names the compiler's closure lifter
// generates ("lambda" + counter), so a user entry that merely starts with
// "lambda" (e.g. "lambda_scorer") survives a Save/Load round-trip.
func isLiftedLambda(name string) bool {
	rest, ok := strings.CutPrefix(name, "lambda")
	if !ok || rest == "" {
		return false
	}
	for _, r := range rest {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// validate checks entry existence, arity, and argument shape/dtype/kind
// against the compiled signature — the preconditions shared by every
// invocation path — and lowers the arguments into VM objects. A request
// that fails here (ErrUnknownEntry, ErrBadArity, ErrBadInput) is rejected
// before it can reach a VM.
func (p *Program) validate(entry string, args []Value) ([]vm.Object, error) {
	sig, ok := p.entries[entry]
	if !ok {
		return nil, unknownEntry(entry)
	}
	if len(args) != len(sig.Params) {
		return nil, badArity(sig, len(args))
	}
	if p.unlinked {
		return nil, fmt.Errorf("nimble: program was loaded without a kernel library; pass the compiled Program to Load")
	}
	if err := checkArgs(sig, args); err != nil {
		return nil, err
	}
	objs := make([]vm.Object, len(args))
	for i, a := range args {
		o, err := toObject(a)
		if err != nil {
			return nil, fmt.Errorf("nimble: %s arg %d: %w", entry, i, err)
		}
		objs[i] = o
	}
	return objs, nil
}
