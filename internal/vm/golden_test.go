package vm_test

// Serialization conformance over the paper's three dynamic models. Two
// properties are pinned:
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
	"math/rand"
	"strings"
	"testing"

	"nimble/internal/compiler"
	"nimble/internal/models"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

type goldenModel struct {
	name string
	hash string
	// entry is the invoked function; empty means "main".
	entry string
	// build compiles a fresh module (compilation mutates modules, so each
	// call constructs anew) and returns entry arguments for the output
	// comparison.
	build func(t *testing.T) (*compiler.Result, []vm.Object)
}

func goldenModels() []goldenModel {
	return []goldenModel{
		{
			name: "lstm",
			hash: "5f7789e3338659cae2df7578791aa6a03848917c49d44283927a70be9b2b8ff9",
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
			hash: "e341d2a2ace4e99be70b6a47a623cc6279340a4e6bcd44d181aa791970cb3fa7",
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
			hash: "a8d52d0bb6c47702cc382b830ce635ba174f38c4c465fe6a877eeaa86af57812",
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
			name:  "decoder",
			hash:  "7e95251a17ddb01c7337492c2effdcd8fd9a73198e9e2d38d26bf3c30352d475",
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
	}
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

// TestReadExecutableRejectsOtherVersion patches a version-2 file to
// version 1: ReadExecutable must refuse it with a *VersionError naming both
// versions rather than misread constants that version 2 follows with
// their units.
func TestReadExecutableRejectsOtherVersion(t *testing.T) {
	e := vm.NewExecutable()
	e.AddConst(tensor.New(tensor.Float32, 2))
	raw := serializeBytes(t, e)
	binary.LittleEndian.PutUint32(raw[4:], 1)
	_, err := vm.ReadExecutable(bytes.NewReader(raw))
	var ve *vm.VersionError
	if !errors.As(err, &ve) || ve.Got != 1 || ve.Want != 2 {
		t.Fatalf("version-1 file: %v, want *VersionError{Got: 1, Want: 2}", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, "version 2") {
		t.Errorf("error %q does not name both versions", msg)
	}
}
