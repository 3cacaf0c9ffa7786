package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func run(t *testing.T, check func(*pkgFile) []Finding, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkgVars := map[string]bool{}
	collectPkgVars(f, pkgVars)
	return check(&pkgFile{fset: fset, file: f, pkgVars: pkgVars})
}

func wantFindings(t *testing.T, fs []Finding, n int, substr string) {
	t.Helper()
	if len(fs) != n {
		t.Fatalf("got %d findings, want %d: %v", len(fs), n, fs)
	}
	for _, f := range fs {
		if !strings.Contains(f.String(), substr) {
			t.Errorf("finding %q does not mention %q", f, substr)
		}
	}
}

func TestPanicPath(t *testing.T) {
	src := `package p
func Handle() { panic("boom") }

// guard rejects misuse (vet:panic-ok construction-phase).
func guard() { panic("misuse") }

func alsoOK() {
	// vet:panic-ok: unreachable by construction
	panic("marked inline")
}
`
	wantFindings(t, run(t, checkPanicPath, src), 1, "Handle")
}

func TestCtxThread(t *testing.T) {
	src := `package p
import "context"
type S struct{ ch chan int }
func (s *S) Blocks() int { return <-s.ch }
func (s *S) Threaded(ctx context.Context) int { return <-s.ch }
// Documented drains on close.
//
// vet:no-ctx — bounded by construction.
func (s *S) Documented() int { return <-s.ch }
func (s *S) Polls() int {
	select {
	case v := <-s.ch:
		return v
	default:
		return 0
	}
}
func (s *S) unexported() int { return <-s.ch }
func (s *S) SpawnsOnly() {
	go func() { <-s.ch }()
}
`
	wantFindings(t, run(t, checkCtxThread, src), 1, "Blocks")
}

func TestBufRetain(t *testing.T) {
	src := `package p
var cache []*tensor.Tensor
var last *tensor.Tensor
type holder struct{ t *tensor.Tensor }
func Bad1(in *tensor.Tensor) { last = in }
func Bad2(in *tensor.Tensor) { cache = append(cache, in) }
func Bad3(h *holder, in *tensor.Tensor) { h.t = in }
func Good(in *tensor.Tensor) *tensor.Tensor {
	out := in
	return out
}
func GoodShadow(in *tensor.Tensor) {
	local := []*tensor.Tensor{}
	local = append(local, in)
	_ = local
}
`
	fs := run(t, checkBufRetain, src)
	if len(fs) != 3 {
		t.Fatalf("got %d findings, want 3: %v", len(fs), fs)
	}
}

func TestEvalOut(t *testing.T) {
	src := `package p
func register() {
	RegisterOp(&Op{
		Eval: func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.MatMul(args[0], args[1]), nil
		},
	})
	RegisterOp(&Op{
		Eval: func(args []*tensor.Tensor, _ Attrs, out *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.MatMulInto(args[0], args[1], out), nil
		},
	})
	RegisterOp(&Op{
		Eval: func(args []*tensor.Tensor, _ Attrs, _ *tensor.Tensor) (*tensor.Tensor, error) {
			return kernels.Transpose(args[0], nil), nil
		},
	})
}
`
	wantFindings(t, run(t, checkEvalOut, src), 1, "kernels.MatMul;")
}

// TestTreeIsClean runs the full suite over the real repository: the tree
// must stay at zero findings, so CI can fail on any new one.
func TestTreeIsClean(t *testing.T) {
	var all []Finding
	for _, sc := range scopes {
		fs, err := vetDir("../../"+sc.dir, sc.checks)
		if err != nil {
			t.Fatalf("%s: %v", sc.dir, err)
		}
		all = append(all, fs...)
	}
	for _, f := range all {
		t.Errorf("%s", f)
	}
}
