package main

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompileDisasmRun drives the Figure 2 flow through the command table:
// a compiled executable disassembles, verifies, and runs after relinking.
func TestCompileDisasmRun(t *testing.T) {
	for _, model := range []string{"mlp", "treelstm"} {
		exe := filepath.Join(t.TempDir(), model+".nimble")
		for _, args := range [][]string{
			{"compile", "-model", model, "-o", exe},
			{"disasm", "-exe", exe, "-verify"},
			{"run", "-model", model, "-exe", exe, "-len", "4"},
		} {
			if err := execute(args); err != nil {
				t.Fatalf("nimble %s: %v", strings.Join(args, " "), err)
			}
		}
	}
}

// TestCommandErrors pins which command lines fail, and which of those are
// usage errors (exit 2) rather than failures of a well-formed command.
func TestCommandErrors(t *testing.T) {
	exe := filepath.Join(t.TempDir(), "mlp.nimble")
	if err := execute([]string{"compile", "-model", "mlp", "-o", exe}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args  []string
		usage bool
	}{
		{[]string{"compile", "-model", "mlp", "-target", "tpu", "-o", filepath.Join(t.TempDir(), "x")}, true},
		{[]string{"disasm", "-model", "mlp", "-exe", exe}, false},
		{[]string{"disasm", exe}, true},
		{[]string{"compile", "-model", "nope", "-o", filepath.Join(t.TempDir(), "x")}, false},
		{[]string{"nope"}, true},
		{nil, true},
	} {
		err := execute(tc.args)
		if err == nil || errors.Is(err, errUsage) != tc.usage {
			t.Errorf("nimble %s: err = %v, want an error with usage = %v", strings.Join(tc.args, " "), err, tc.usage)
		}
	}
}

// TestUsageNamesEveryCommand pins the usage line to the command table.
func TestUsageNamesEveryCommand(t *testing.T) {
	line := strings.TrimSuffix(strings.TrimPrefix(errUsage.Error(), "usage: nimble "), " [flags]")
	names := strings.Split(line, "|")
	for _, name := range names {
		if commands[name] == nil {
			t.Errorf("usage names %q, which has no table entry", name)
		}
	}
	if len(names) != len(commands) {
		t.Errorf("usage names %d subcommands, the table has %d", len(names), len(commands))
	}
}
