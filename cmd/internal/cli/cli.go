// Package cli is the shared plumbing of the nimble and nimble-serve
// commands: one model registry and one set of -model/-exe flag semantics,
// so every subcommand and the server build, load, and name models the
// same way. It consumes only the public nimble API.
package cli

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"nimble"
	"nimble/ir"
	"nimble/models"
)

// Model couples a built model's module (already compiled into Program)
// with a synthetic input generator for benchmarks and smoke runs.
type Model struct {
	Name    string
	Program *nimble.Program
	// Entry is the model's primary entry function: "main", or the
	// decoder's "generate".
	Entry string
	// RandomInput draws one input for the primary entry; n scales it
	// (sequence length, tree leaves, or batch rows).
	RandomInput func(rng *rand.Rand, n int) nimble.Value
	// Describe is a one-line human description for logs.
	Describe string
}

// Names lists the registered model names for flag usage strings.
func Names() string {
	names := make([]string, len(catalog))
	for i, c := range catalog {
		names[i] = c.name
	}
	return strings.Join(names, " | ")
}

// ModelFlag registers the shared -model flag on fs.
func ModelFlag(fs *flag.FlagSet, def string) *string {
	return fs.String("model", def, "model: "+Names())
}

// ExeFlag registers the shared -exe flag on fs; empty means no executable.
func ExeFlag(fs *flag.FlagSet, def string) *string {
	return fs.String("exe", def, "serialized executable path (written by nimble compile)")
}

// Build constructs and compiles the named model with the given options.
func Build(name string, opts ...nimble.Option) (*Model, error) {
	for _, c := range catalog {
		if c.name == name {
			m := &Model{Name: name, Entry: "main"}
			var err error
			if m.Program, err = nimble.Compile(c.module(m), opts...); err != nil {
				return nil, err
			}
			return m, nil
		}
	}
	return nil, fmt.Errorf("unknown -model %q (%s)", name, Names())
}

// catalog lists the built-in models in usage order; Names and Build both read
// it, so they cannot drift. module builds the IR and sets m's other fields.
var catalog = []struct {
	name   string
	module func(m *Model) *ir.Module
}{
	{"mlp", func(m *Model) *ir.Module {
		mm := models.NewMLP(models.DefaultMLPConfig())
		m.RandomInput = func(rng *rand.Rand, n int) nimble.Value { return nimble.TensorValue(mm.RandomBatch(rng, max(1, n))) }
		m.Describe = fmt.Sprintf("mlp %d->%dx%d->%d (row-independent head)", mm.Config.In, mm.Config.Hidden, mm.Config.Layers, mm.Config.Out)
		return mm.Module
	}},
	{"lstm", lstm(1)},
	{"lstm2", lstm(2)},
	{"treelstm", func(m *Model) *ir.Module {
		mm := models.NewTreeLSTM(models.DefaultTreeLSTMConfig())
		m.RandomInput = func(rng *rand.Rand, n int) nimble.Value {
			return models.TreeValue(mm, models.RandomTree(rng, max(1, n), mm.Config.Input))
		}
		m.Describe = fmt.Sprintf("treelstm in=%d hidden=%d (Tree ADT input)", mm.Config.Input, mm.Config.Hidden)
		return mm.Module
	}},
	{"bert", bert(models.BERTReduced())},
	{"bert-base", bert(models.BERTBase())},
	{"decoder", func(m *Model) *ir.Module {
		cfg := models.DefaultDecoderConfig()
		m.Entry = "generate"
		m.RandomInput = func(rng *rand.Rand, n int) nimble.Value { return models.StartTokenValue(rng.Int63n(int64(cfg.Vocab))) }
		m.Describe = fmt.Sprintf("decoder vocab=%d dim=%d layers=%d (streaming autoregressive generation, %d tokens)",
			cfg.Vocab, cfg.Dim, cfg.Layers, cfg.MaxNew)
		return models.NewDecoder(cfg).Module
	}},
}

func lstm(layers int) func(m *Model) *ir.Module {
	return func(m *Model) *ir.Module {
		mm := models.NewLSTM(models.DefaultLSTMConfig(layers))
		m.RandomInput = func(rng *rand.Rand, n int) nimble.Value { return models.RandomSequenceValue(mm, rng, max(1, n)) }
		m.Describe = fmt.Sprintf("lstm in=%d hidden=%d layers=%d (ADT list input)", mm.Config.Input, mm.Config.Hidden, layers)
		return mm.Module
	}
}

func bert(cfg models.BERTConfig) func(m *Model) *ir.Module {
	return func(m *Model) *ir.Module {
		mm := models.NewBERT(cfg)
		m.RandomInput = func(rng *rand.Rand, n int) nimble.Value { return nimble.TensorValue(mm.RandomIDs(rng, max(1, n))) }
		m.Describe = fmt.Sprintf("bert L=%d H=%d (dynamic sequence length)", cfg.Layers, cfg.Hidden)
		return mm.Module
	}
}

// BuildOrLoad compiles the model, or — when exe is non-empty — loads the
// serialized executable at that path and links it against the model's
// kernels (the model is rebuilt deterministically, exactly like production
// relinking from a registry). The returned Model runs the loaded program.
func BuildOrLoad(name, exe string, opts ...nimble.Option) (*Model, error) {
	m, err := Build(name, opts...)
	if err != nil || exe == "" {
		return m, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if m.Program, err = nimble.Load(f, m.Program); err != nil {
		return nil, fmt.Errorf("load %s: %w", exe, err)
	}
	return m, nil
}
