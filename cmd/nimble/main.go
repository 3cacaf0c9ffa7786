// Command nimble is the toolchain of the Nimble flow (Figure 2): compile a
// built-in model into a serialized executable (bytecode plus the kernel
// name table), disassemble it, run it in the VM (relinking its kernels by
// rebuilding the model, as nimble-serve does), regenerate the paper's
// tables and figures (serving load is the benchmark module's: go run -C
// benchmark .), and lint the tree. Each subcommand lists its flags on -h.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"nimble"
	"nimble/bench"
	"nimble/cmd/internal/cli"
	"nimble/ir"
)

// commands maps each subcommand to the function that registers its flags
// on its own FlagSet and returns the action to run once they are parsed.
var commands = map[string]func(fs *flag.FlagSet) func() error{
	"compile": compileCmd, "disasm": disasmCmd, "run": runCmd, "paper": paperCmd, "vet": vetCmd,
}

// errUsage marks a command line that names no subcommand or whose flags do
// not parse; it has been printed when returned, and exits 2.
var errUsage = errors.New("usage: nimble compile|disasm|run|paper|vet [flags]")

func main() {
	switch err := execute(os.Args[1:]); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "nimble", err)
		os.Exit(1)
	}
}

// execute runs the subcommand args[0] names with the flags that follow it.
func execute(args []string) error {
	if len(args) == 0 || commands[args[0]] == nil {
		fmt.Fprintln(os.Stderr, errUsage)
		return errUsage
	}
	fs := flag.NewFlagSet("nimble "+args[0], flag.ContinueOnError)
	action := commands[args[0]](fs)
	err := fs.Parse(args[1:])
	if err == nil && fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
		fmt.Fprintln(fs.Output(), err)
	}
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if err := action(); err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	return nil
}

// printEntries prints one "entry <signature>" line per entrypoint.
func printEntries(p *nimble.Program) {
	for _, sig := range p.Entrypoints() {
		fmt.Printf("entry %s\n", sig)
	}
}

// compileCmd builds a model and writes its serialized executable.
func compileCmd(fs *flag.FlagSet) func() error {
	model := cli.ModelFlag(fs, "lstm")
	out := fs.String("o", "model.nimble", "output executable path")
	target := ir.CPU(0)
	fs.Func("target", "target `device`: cpu | gpu (default cpu)", func(s string) error {
		d, ok := map[string]ir.Device{"cpu": ir.CPU(0), "gpu": ir.GPU(0)}[s]
		if !ok {
			return errors.New("not cpu or gpu")
		}
		target = d
		return nil
	})
	verify := fs.Bool("verify", false, "run the static invariant verifier after every pass and over the bytecode; violations fail the build")
	return func() error {
		opts := []nimble.Option{nimble.WithTarget(target)}
		if *verify {
			opts = append(opts, nimble.WithVerify())
		}
		m, err := cli.Build(*model, opts...)
		if err != nil {
			return err
		}
		if *verify {
			fmt.Println("verify: all pass boundaries and the executable check clean")
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		n, err := m.Program.Save(f)
		if err = errors.Join(err, f.Close()); err != nil {
			return fmt.Errorf("write %s: %w", *out, err)
		}
		st := m.Program.Stats()
		fmt.Printf("compiled %s: %d instructions, %d kernels, %d bytes -> %s\n",
			*model, st.Instructions, st.Kernels, n, *out)
		fmt.Printf("fusion: %d groups (%d ops); allocs: %d static, %d dynamic; coalesced: %d -> %d\n",
			st.FusionGroups, st.FusedOps, st.StaticAllocs, st.DynamicAllocs,
			st.StoragesBefore, st.StoragesAfter)
		printEntries(m.Program)
		return nil
	}
}

// disasmCmd prints an executable's bytecode, kernel table and constants:
// -model's in-memory compile, entry signatures first, or the file -exe
// names, loaded unlinked (printing bytecode needs no kernels).
func disasmCmd(fs *flag.FlagSet) func() error {
	model := cli.ModelFlag(fs, "")
	exe := cli.ExeFlag(fs, "model.nimble")
	verify := fs.Bool("verify", false, "check the executable against the static invariant catalog; violations fail the command")
	return func() error {
		exeSet := false
		fs.Visit(func(f *flag.Flag) { exeSet = exeSet || f.Name == "exe" })
		var p *nimble.Program
		switch {
		case *model != "" && exeSet:
			return errors.New("-model and -exe exclude each other")
		case *model != "":
			m, err := cli.Build(*model)
			if err != nil {
				return err
			}
			p = m.Program
			printEntries(p)
		default:
			f, err := os.Open(*exe)
			if err != nil {
				return err
			}
			defer f.Close()
			if p, err = nimble.Load(f, nil); err != nil {
				return fmt.Errorf("load: %w", err)
			}
		}
		fmt.Print(p.Disassemble())
		if *verify {
			if err := p.Verify(); err != nil {
				return err
			}
			fmt.Println("verify: executable checks clean")
		}
		return nil
	}
}

// runCmd runs a model once on synthetic input and prints the latency (and
// optionally the VM profile); -exe runs a saved executable, relinked.
func runCmd(fs *flag.FlagSet) func() error {
	model := cli.ModelFlag(fs, "lstm")
	exe := cli.ExeFlag(fs, "")
	length := fs.Int("len", 26, "sequence length / tree size / batch rows")
	profile := fs.Bool("profile", false, "print the VM instruction profile")
	timeout := fs.Duration("timeout", 0, "per-invocation deadline (0 = none)")
	return func() error {
		m, err := cli.BuildOrLoad(*model, *exe)
		if err != nil {
			return err
		}
		printEntries(m.Program)
		sess := m.Program.NewSession()
		if *profile {
			sess.EnableProfiling()
		}
		input := m.RandomInput(rand.New(rand.NewSource(1)), *length)
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		start := time.Now()
		out, err := sess.Invoke(ctx, m.Entry, input)
		lat := time.Since(start)
		if err != nil {
			return err
		}
		if t, ok := out.Tensor(); ok {
			fmt.Printf("output: %s in %v (%.1f µs/token)\n", t, lat,
				float64(lat.Microseconds())/float64(*length))
		} else {
			fmt.Printf("output: %s in %v\n", out.Kind(), lat)
		}
		if *profile {
			fmt.Print(sess.Profile())
		}
		return nil
	}
}

// paperCmd regenerates the paper's tables and figures.
func paperCmd(fs *flag.FlagSet) func() error {
	exp := fs.String("experiment", "all", "table1 | table2 | table3 | table4 | figure3 | memplan | all")
	quick := fs.Bool("quick", false, "reduced sample counts and model sizes")
	seed := fs.Int64("seed", 7, "sampler seed")
	return func() error {
		// Every result type renders itself with Format.
		type result = interface{ Format() string }
		cfg := bench.Config{Quick: *quick, Seed: *seed}
		for _, e := range []struct {
			name string
			run  func(bench.Config) (result, error)
		}{
			{"table1", func(c bench.Config) (result, error) { return bench.Table1(c) }},
			{"table2", func(c bench.Config) (result, error) { return bench.Table2(c) }},
			{"table3", func(c bench.Config) (result, error) { return bench.Table3(c) }},
			{"table4", func(c bench.Config) (result, error) { return bench.Table4(c) }},
			{"figure3", func(c bench.Config) (result, error) { return bench.Figure3(c) }},
			{"memplan", func(c bench.Config) (result, error) { return bench.MemPlan(c) }},
		} {
			if *exp != "all" && *exp != e.name {
				continue
			}
			r, err := e.run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Println(r.Format())
		}
		return nil
	}
}
