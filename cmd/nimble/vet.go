package main

import (
	"cmp"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// vetCmd is the repo's own static lint suite: analyzers for the Go-level
// invariants the Nimble runtime depends on but the compiler cannot express
// in types (scopes lists where each applies; checks.go documents them).
// Findings print one per line as file:line: [check] message, and any
// finding fails the command, so CI can gate on it. It is built on
// go/parser alone (no go/analysis driver, which the standard library lacks),
// so it runs directly rather than via go vet -vettool.
func vetCmd(fs *flag.FlagSet) func() error {
	root := fs.String("root", ".", "module root to analyze")
	return func() error {
		var all []Finding
		for _, sc := range scopes {
			found, err := vetDir(filepath.Join(*root, sc.dir), sc.checks)
			if err != nil {
				return err
			}
			all = append(all, found...)
		}
		slices.SortFunc(all, func(a, b Finding) int {
			return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line))
		})
		for _, f := range all {
			fmt.Println(f)
		}
		if len(all) > 0 {
			return fmt.Errorf("%d finding(s)", len(all))
		}
		return nil
	}
}

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
