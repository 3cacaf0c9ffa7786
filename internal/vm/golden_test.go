package vm_test

// Serialization conformance over the built-in models (the three dynamic
// ones, BERT and the MLP on the CPU, the decoder on a GPU target) and two
// generated conformance programs (an If in value position, a self tail
// call lowered to a loop). Two properties are pinned:
//
//  1. Round-trip fidelity: serialize → deserialize → re-serialize is
//     byte-identical, and the relinked executable computes the same
//     outputs as the original.
//  2. Format stability: the serialized bytes of a fixed-seed compile hash
//     to a checked-in golden value, so any change to the compiler
//     pipeline's output or the wire format shows up as an explicit diff
//     of this file rather than a silent drift. (This also pins compile
//     determinism itself — the memory planner once emitted kills in map
//     order, which made executables differ run over run.)
//
// If a change intentionally alters the format or compile output: bump the
// serialize version if the wire format changed, rerun with
// -run TestSerializeGolden -v to print the new hashes, and update the
// table in the same commit.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nimble/internal/compiler"
	"nimble/internal/conformance"
	"nimble/internal/ir"
	"nimble/internal/models"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

type goldenModel struct {
	name string
	hash string
	// entry is the invoked function; empty means "main".
	entry string
	// build compiles the model and returns entry arguments for the output
	// comparison.
	build func(t *testing.T) (*compiler.Result, []vm.Object)
}

func goldenModels() []goldenModel {
	return []goldenModel{
		{
			name: "lstm",
			hash: "1c957add4bd23745f13a94e8abf2cad9ae896c665540f245fccdd908d276f3ba",
			build: func(t *testing.T) (*compiler.Result, []vm.Object) {
				m := models.NewLSTM(models.LSTMConfig{Input: 16, Hidden: 24, Layers: 2, Seed: 42})
				res, err := compiler.Compile(m.Module, compiler.Options{})
				if err != nil {
					t.Fatal(err)
				}
				seq := m.RandomSequence(rand.New(rand.NewSource(1)), 5)
				return res, []vm.Object{seq}
			},
		},
		{
			name: "treelstm",
			hash: "b3db6a4944bc627b65a49084bacaee94af2a90b2d7b352ed35a6a0d63940720e",
			build: func(t *testing.T) (*compiler.Result, []vm.Object) {
				m := models.NewTreeLSTM(models.TreeLSTMConfig{Input: 12, Hidden: 10, Seed: 43})
				res, err := compiler.Compile(m.Module, compiler.Options{})
				if err != nil {
					t.Fatal(err)
				}
				tree := models.RandomTree(rand.New(rand.NewSource(2)), 6, 12)
				return res, []vm.Object{m.ToObject(tree)}
			},
		},
		{
			name: "bert",
			hash: "1dd8898b344a87cc0fa341fa1965ca5508ba4a80f3bf04e321a284fe45accffa",
			build: func(t *testing.T) (*compiler.Result, []vm.Object) {
				m := models.NewBERT(models.BERTConfig{Layers: 1, Hidden: 32, Heads: 2, FFN: 64, Vocab: 128, MaxSeq: 32, Seed: 44})
				res, err := compiler.Compile(m.Module, compiler.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ids := m.RandomIDs(rand.New(rand.NewSource(3)), 7)
				return res, []vm.Object{vm.NewTensorObj(ids)}
			},
		},
		{
			name: "mlp",
			hash: "2993048afeffd6b26597ccb2cccc10fa3c88e6f61b58bd1331a603c9ed62f4ac",
			build: func(t *testing.T) (*compiler.Result, []vm.Object) {
				m := models.NewMLP(models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 2, Seed: 45})
				res, err := compiler.Compile(m.Module, compiler.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return res, []vm.Object{vm.NewTensorObj(m.RandomBatch(rand.New(rand.NewSource(4)), 5))}
			},
		},
		{
			name:  "decoder",
			hash:  "1b02bb6c3fcc2bc707ad4ff560a8908253fc3797c54a6b1f438435ac6c1273f4",
			entry: "generate",
			build: func(t *testing.T) (*compiler.Result, []vm.Object) {
				m := models.NewDecoder(models.DefaultDecoderConfig())
				res, err := compiler.Compile(m.Module, compiler.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return res, []vm.Object{vm.NewTensorObj(models.StartToken(9))}
			},
		},
		{
			// The table's only compile whose allocations manifest-alloc
			// and place-devices put on a non-CPU device.
			name:  "decoder-gpu",
			hash:  "c7009bb897a65364052546283da5257ea44dd01e7d5b13a1b0e07fe6d478566b",
			entry: "generate",
			build: func(t *testing.T) (*compiler.Result, []vm.Object) {
				m := models.NewDecoder(models.DefaultDecoderConfig())
				res, err := compiler.Compile(m.Module, compiler.Options{Target: ir.GPU(0)})
				if err != nil {
					t.Fatal(err)
				}
				return res, []vm.Object{vm.NewTensorObj(models.StartToken(9))}
			},
		},
		{
			// Seed 6 binds an If in value position and feeds it to a dense
			// over an Any leading dimension.
			name: "conformance-if",
			hash: "47b9a71a1e5c44969e468f33843623c161a1d40843c1e49ae0ee9aba4e425724",
			build: func(t *testing.T) (*compiler.Result, []vm.Object) {
				return conformanceBuild(t, conformance.Generate(rand.New(rand.NewSource(6))))
			},
		},
		{
			// A self tail call lowered to a loop back edge.
			name: "conformance-loop",
			hash: "693940c173198e91bdd93c937191fbaeb3750920fc02b711347a7d66d38bb5cf",
			build: func(t *testing.T) (*compiler.Result, []vm.Object) {
				return conformanceBuild(t, conformance.GenerateLoop(rand.New(rand.NewSource(1))))
			},
		},
	}
}

// conformanceBuild compiles a generated conformance program and returns its
// inputs as entry arguments.
func conformanceBuild(t *testing.T, p interface {
	BuildModule() *ir.Module
	Inputs() []*tensor.Tensor
}) (*compiler.Result, []vm.Object) {
	res, err := compiler.Compile(p.BuildModule(), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var args []vm.Object
	for _, in := range p.Inputs() {
		args = append(args, vm.NewTensorObj(in))
	}
	return res, args
}

func serializeBytes(t *testing.T, e *vm.Executable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSerializeGolden(t *testing.T) {
	for _, gm := range goldenModels() {
		gm := gm
		t.Run(gm.name, func(t *testing.T) {
			res, args := gm.build(t)
			raw := serializeBytes(t, res.Exe)

			sum := sha256.Sum256(raw)
			got := hex.EncodeToString(sum[:])
			t.Logf("%s: %d bytes, sha256 %s", gm.name, len(raw), got)
			if got != gm.hash {
				t.Errorf("%s: serialized executable hash drifted:\n  got  %s\n  want %s\n"+
					"either the wire format or the compiler's output changed; if intentional, update the golden table",
					gm.name, got, gm.hash)
			}

			// A second fresh compile must serialize identically: compile
			// determinism is a precondition for the golden hash to mean
			// anything.
			res2, _ := gm.build(t)
			if !bytes.Equal(raw, serializeBytes(t, res2.Exe)) {
				t.Errorf("%s: two fresh compiles serialize differently (nondeterministic pipeline)", gm.name)
			}

			// Round trip: deserialize, re-serialize byte-identically.
			back, err := vm.ReadExecutable(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, serializeBytes(t, back)) {
				t.Errorf("%s: re-serialization after round trip is not byte-identical", gm.name)
			}

			// Relink and compare outputs against the original executable.
			if err := back.LinkKernels(res.Registry); err != nil {
				t.Fatal(err)
			}
			entry := gm.entry
			if entry == "" {
				entry = "main"
			}
			origOut, err := vm.New(res.Exe).InvokeContext(context.Background(), entry, args...)
			if err != nil {
				t.Fatal(err)
			}
			backOut, err := vm.New(back).InvokeContext(context.Background(), entry, args...)
			if err != nil {
				t.Fatal(err)
			}
			want := origOut.(*vm.TensorObj).T
			gotT := backOut.(*vm.TensorObj).T
			if !gotT.Equal(want) {
				t.Errorf("%s: deserialized executable computes different outputs", gm.name)
			}
		})
	}
}

// TestReadExecutableRejectsOtherVersion patches a current file to each
// older version: ReadExecutable must refuse it with a *VersionError naming
// both versions. A version-1 file lacks the units word after each constant;
// a version-2 file numbers fused kernels by site, so linking it by name
// could bind a fused<N> to a different computation.
func TestReadExecutableRejectsOtherVersion(t *testing.T) {
	e := vm.NewExecutable()
	e.AddConst(tensor.New(tensor.Float32, 2))
	for _, v := range []uint32{1, 2} {
		raw := serializeBytes(t, e)
		binary.LittleEndian.PutUint32(raw[4:], v)
		_, err := vm.ReadExecutable(bytes.NewReader(raw))
		var ve *vm.VersionError
		if !errors.As(err, &ve) || ve.Got != v || ve.Want != 3 {
			t.Fatalf("version-%d file: %v, want *VersionError{Got: %d, Want: 3}", v, err, v)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d", v)) || !strings.Contains(msg, "version 3") {
			t.Errorf("error %q does not name both versions", msg)
		}
	}
}
