// Command nimble-vet is the repo's own static lint suite: a small analyzer
// pack enforcing the Go-level invariants the Nimble runtime depends on but
// the compiler cannot express in types.
//
//	panicpath  internal/serve, internal/vm   no panic on request paths
//	ctxthread  internal/serve, package root  blocking exports thread ctx
//	bufretain  internal/kernels              kernels never retain buffers
//	evalout    internal/ir                   an Eval naming its out never allocates
//
// Usage:
//
//	nimble-vet [-root dir]
//
// Findings print one per line as file:line: [check] message; the exit code
// is 1 when anything is flagged, so CI can gate on it. The tool is built on
// go/parser alone (no go/analysis driver — the build environment is
// offline), which is why it runs directly rather than via go vet -vettool.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// scope maps a directory (relative to the module root) to the checks that
// apply there.
var scopes = []struct {
	dir    string
	checks []func(*pkgFile) []Finding
}{
	{"internal/serve", []func(*pkgFile) []Finding{checkPanicPath, checkCtxThread}},
	{"internal/vm", []func(*pkgFile) []Finding{checkPanicPath}},
	{"internal/kernels", []func(*pkgFile) []Finding{checkBufRetain}},
	{"internal/ir", []func(*pkgFile) []Finding{checkEvalOut}},
	{".", []func(*pkgFile) []Finding{checkCtxThread}},
}

func main() {
	root := flag.String("root", ".", "module root to analyze")
	flag.Parse()

	var all []Finding
	for _, sc := range scopes {
		fs, err := vetDir(filepath.Join(*root, sc.dir), sc.checks)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nimble-vet: %v\n", err)
			os.Exit(2)
		}
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Pos.Filename != all[j].Pos.Filename {
			return all[i].Pos.Filename < all[j].Pos.Filename
		}
		return all[i].Pos.Line < all[j].Pos.Line
	})
	for _, f := range all {
		fmt.Println(f)
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "nimble-vet: %d finding(s)\n", len(all))
		os.Exit(1)
	}
}

// vetDir parses every non-test .go file directly in dir (no recursion) and
// applies the checks with package-level context assembled across the files.
func vetDir(dir string, checks []func(*pkgFile) []Finding) ([]Finding, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkgVars := map[string]bool{}
	for _, f := range files {
		collectPkgVars(f, pkgVars)
	}
	var out []Finding
	for _, f := range files {
		pf := &pkgFile{fset: fset, file: f, pkgVars: pkgVars}
		for _, check := range checks {
			out = append(out, check(pf)...)
		}
	}
	return out, nil
}

func collectPkgVars(f *ast.File, into map[string]bool) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, n := range vs.Names {
				into[n.Name] = true
			}
		}
	}
}
