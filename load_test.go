package nimble_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"nimble"
	"nimble/internal/vm"
	"nimble/ir"
	"nimble/models"
)

// loadLibs compiles the three model families the Load tests save and
// reload, at sizes that keep each saved executable a few kilobytes.
func loadLibs(tb testing.TB) []*nimble.Program {
	tb.Helper()
	var libs []*nimble.Program
	for _, mod := range []*ir.Module{
		models.NewMLP(models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 1}).Module,
		models.NewLSTM(models.LSTMConfig{Input: 8, Hidden: 8, Layers: 1, Seed: 1}).Module,
		models.NewTreeLSTM(models.TreeLSTMConfig{Input: 8, Hidden: 8, Seed: 1}).Module,
	} {
		p, err := nimble.Compile(mod)
		if err != nil {
			tb.Fatal(err)
		}
		libs = append(libs, p)
	}
	return libs
}

// checkLoadErr fails unless err is nil or one of Load's two typed families.
func checkLoadErr(t *testing.T, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, nimble.ErrBadInput) && !errors.Is(err, nimble.ErrVerify) {
		t.Fatalf("Load error is neither ErrBadInput nor ErrVerify: %v", err)
	}
}

// FuzzLoad feeds arbitrary bytes to Load, unlinked and against each
// library: it must never panic or hang, and every error must be typed.
// Seeds are saved MLP, LSTM and Tree-LSTM executables, their truncations,
// and single bit flips in their count fields and bodies.
//
//	go test -run '^$' -fuzz FuzzLoad -fuzztime 30s .
func FuzzLoad(f *testing.F) {
	libs := loadLibs(f)
	for _, lib := range libs {
		var buf bytes.Buffer
		if _, err := lib.Save(&buf); err != nil {
			f.Fatal(err)
		}
		raw := buf.Bytes()
		f.Add(raw)
		for _, n := range []int{0, 4, 8, 12, 16, len(raw) / 2, len(raw) - 1} {
			f.Add(raw[:n])
		}
		for _, at := range []int{7, 11, 15, len(raw) / 3, len(raw) / 2, len(raw) - 5} {
			flipped := bytes.Clone(raw)
			flipped[at] ^= 0x80
			f.Add(flipped)
		}
	}
	libs = append(libs, nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, lib := range libs {
			_, err := nimble.Load(bytes.NewReader(data), lib)
			checkLoadErr(t, err)
		}
	})
}

// TestLoadAllocationBounded feeds Load tiny files whose headers claim huge
// counts or shapes. Each must fail with a typed error, having allocated
// memory in proportion to the bytes it read, not to what the header
// claimed.
func TestLoadAllocationBounded(t *testing.T) {
	u32 := func(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
	// head is an executable with no functions and no kernels, up to its
	// instruction count.
	head := func(nCode uint32) []byte {
		return u32(u32(u32(u32([]byte("NMBL"), 2), 0), 0), nCode)
	}
	// constant is an empty program whose one constant is a float32 tensor
	// of the given shape and claimed element count, with no payload.
	constant := func(count uint64, dims ...uint64) []byte {
		b := append(u32(head(0), 1), 0) // one constant; dtype float32
		b = u32(b, uint32(len(dims)))
		for _, d := range dims {
			b = u64(b, d)
		}
		return u64(b, count)
	}
	const maxDim = math.MaxInt32
	cases := []struct {
		name string
		data []byte
	}{
		{"instruction count 2^24", head(1 << 24)},
		{"function count 2^20", u32(u32([]byte("NMBL"), 2), 1<<20)},
		{"one instruction with 2^16 args", u32(append(append(head(1), 0), make([]byte, 72)...), 1<<16)},
		{"1 GiB constant, no payload", constant(1<<28, 1<<14, 1<<14)},
		{"payload past the address space", constant(0, maxDim, maxDim)},
		{"element count that overflows int64", constant(0, maxDim, maxDim, maxDim, maxDim, maxDim)},
		{"element count claimed without a shape", constant(1 << 40)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := nimble.Load(bytes.NewReader(tc.data), nil)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("Load accepted a truncated executable")
			}
			checkLoadErr(t, err)
			if d := after.TotalAlloc - before.TotalAlloc; d > 16<<20 {
				t.Fatalf("Load of a %d-byte file allocated %d MiB", len(tc.data), d>>20)
			}
		})
	}
}

// TestLoadAllocations bounds the allocations of loading the saved MLP
// executable. Its 24 instruction records hold at least 12 fixed fields
// each; the reader reads every field through one scratch array, so the
// loads allocate for the records, names, constants and linking (141 at this
// writing), while a buffer per field would add about 300.
func TestLoadAllocations(t *testing.T) {
	lib := loadLibs(t)[0]
	var buf bytes.Buffer
	if _, err := lib.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := nimble.Load(bytes.NewReader(raw), lib); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Fatalf("Load of the %d-byte MLP executable made %v allocations, want at most 200", len(raw), allocs)
	}
}

// TestLoadKeepsVersionError: Load types a file of another format version
// as ErrBadInput and keeps the reader's *vm.VersionError reachable. Version
// 2 is the format of the previous build, whose fused kernel names are
// numbered by site and must never be linked by name.
func TestLoadKeepsVersionError(t *testing.T) {
	var buf bytes.Buffer
	if _, err := loadLibs(t)[0].Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[4:], 2)
	_, err := nimble.Load(bytes.NewReader(raw), nil)
	var ve *vm.VersionError
	if !errors.Is(err, nimble.ErrBadInput) || !errors.As(err, &ve) || ve.Got != 2 {
		t.Fatalf("Load of a version-2 file = %v, want ErrBadInput wrapping *vm.VersionError{Got: 2}", err)
	}
}
