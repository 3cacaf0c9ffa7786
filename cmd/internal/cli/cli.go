// Package cli is the shared plumbing of the nimble-* commands: one model
// registry and one set of -model/-exe flag semantics, so every tool
// builds, loads, and names models the same way. It consumes only the
// public nimble API.
package cli

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"nimble"
	"nimble/models"
)

// Model couples a built model's module (already compiled into Program)
// with a synthetic input generator for benchmarks and smoke runs.
type Model struct {
	Name    string
	Program *nimble.Program
	// Entry is the model's primary entry function; empty means "main"
	// (the decoder's is "generate").
	Entry string
	// RandomInput draws one input for the primary entry; n scales it
	// (sequence length, tree leaves, or batch rows).
	RandomInput func(rng *rand.Rand, n int) nimble.Value
	// Describe is a one-line human description for logs.
	Describe string
}

// MainEntry returns the primary entry name ("main" unless overridden).
func (m *Model) MainEntry() string {
	if m.Entry == "" {
		return "main"
	}
	return m.Entry
}

// Names lists the registered model names for flag usage strings.
func Names() string { return "mlp | lstm | lstm2 | treelstm | bert | bert-base | decoder" }

// ModelFlag registers the shared -model flag.
func ModelFlag(def string) *string {
	return flag.String("model", def, "model: "+Names())
}

// ExeFlag registers the shared -exe flag (a serialized executable path;
// empty means compile in memory).
func ExeFlag(def string) *string {
	return flag.String("exe", def, "serialized executable path (written by nimble-compile)")
}

// Build constructs and compiles the named model with the given options.
func Build(name string, opts ...nimble.Option) (*Model, error) {
	m := &Model{Name: name}
	var err error
	switch name {
	case "mlp":
		mm := models.NewMLP(models.DefaultMLPConfig())
		m.Program, err = nimble.Compile(mm.Module, opts...)
		m.RandomInput = func(rng *rand.Rand, n int) nimble.Value {
			return nimble.TensorValue(mm.RandomBatch(rng, max(1, n)))
		}
		m.Describe = fmt.Sprintf("mlp %d->%dx%d->%d (row-independent head)",
			mm.Config.In, mm.Config.Hidden, mm.Config.Layers, mm.Config.Out)
	case "lstm", "lstm2":
		layers := 1
		if name == "lstm2" {
			layers = 2
		}
		mm := models.NewLSTM(models.DefaultLSTMConfig(layers))
		m.Program, err = nimble.Compile(mm.Module, opts...)
		m.RandomInput = func(rng *rand.Rand, n int) nimble.Value {
			return models.RandomSequenceValue(mm, rng, max(1, n))
		}
		m.Describe = fmt.Sprintf("lstm in=%d hidden=%d layers=%d (ADT list input)",
			mm.Config.Input, mm.Config.Hidden, layers)
	case "treelstm":
		mm := models.NewTreeLSTM(models.DefaultTreeLSTMConfig())
		m.Program, err = nimble.Compile(mm.Module, opts...)
		m.RandomInput = func(rng *rand.Rand, n int) nimble.Value {
			return models.TreeValue(mm, models.RandomTree(rng, max(1, n), mm.Config.Input))
		}
		m.Describe = fmt.Sprintf("treelstm in=%d hidden=%d (Tree ADT input)",
			mm.Config.Input, mm.Config.Hidden)
	case "bert", "bert-base":
		cfg := models.BERTReduced()
		if name == "bert-base" {
			cfg = models.BERTBase()
		}
		mm := models.NewBERT(cfg)
		m.Program, err = nimble.Compile(mm.Module, opts...)
		m.RandomInput = func(rng *rand.Rand, n int) nimble.Value {
			return nimble.TensorValue(mm.RandomIDs(rng, max(1, n)))
		}
		m.Describe = fmt.Sprintf("bert L=%d H=%d (dynamic sequence length)",
			cfg.Layers, cfg.Hidden)
	case "decoder":
		cfg := models.DefaultDecoderConfig()
		mm := models.NewDecoder(cfg)
		m.Program, err = nimble.Compile(mm.Module, opts...)
		m.Entry = "generate"
		m.RandomInput = func(rng *rand.Rand, n int) nimble.Value {
			return models.StartTokenValue(rng.Int63n(int64(cfg.Vocab)))
		}
		m.Describe = fmt.Sprintf("decoder vocab=%d dim=%d layers=%d (streaming autoregressive generation, %d tokens)",
			cfg.Vocab, cfg.Dim, cfg.Layers, cfg.MaxNew)
	default:
		return nil, fmt.Errorf("unknown -model %q (%s)", name, Names())
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Load reads a serialized executable from path and links it against the
// named model's kernels (the model is rebuilt deterministically, exactly
// like production relinking from a registry). The returned Model runs the
// loaded program.
func Load(name, path string, opts ...nimble.Option) (*Model, error) {
	m, err := Build(name, opts...)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := nimble.Load(f, m.Program)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	m.Program = p
	return m, nil
}

// BuildOrLoad compiles the model, or — when exe is non-empty — loads the
// serialized executable and relinks it against the model's kernels.
func BuildOrLoad(name, exe string, opts ...nimble.Option) (*Model, error) {
	if exe == "" {
		return Build(name, opts...)
	}
	return Load(name, exe, opts...)
}
