package vm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"nimble/internal/tensor"
)

// Executable binary format (little endian):
//
//	magic "NMBL", u32 version
//	u32 #funcs { str name, u32 params, u32 regs, u32 start, u32 len }
//	u32 #kernels { str name }
//	u32 #instructions { variable-length instruction records }
//	u32 #consts { tensor record (see internal/tensor serialize), u32 units }
//
// units is non-zero for the B operand of a dense_packed (Executable.ConstUnits).
// Version 2 added it; a file of another version is rejected with a
// *VersionError.
//
// Instruction records serialize only the fields their opcode uses, giving
// the "variable-length instruction format due to the inclusion of variable
// sized operands such as data shapes" the paper describes (§5.1).

const (
	magic   = "NMBL"
	version = 2
)

// VersionError reports an executable written in a format version this
// build does not read.
type VersionError struct{ Got, Want uint32 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("vm: executable format version %d, this build reads version %d", e.Got, e.Want)
}

// WriteTo serializes the executable.
func (e *Executable) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	if err := e.write(cw); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (e *Executable) write(w io.Writer) error {
	if _, err := w.Write([]byte(magic)); err != nil {
		return err
	}
	if err := writeU32(w, version); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(e.Funcs))); err != nil {
		return err
	}
	for _, f := range e.Funcs {
		if err := writeString(w, f.Name); err != nil {
			return err
		}
		for _, v := range []uint32{uint32(f.NumParams), uint32(f.RegCount), uint32(f.Start), uint32(f.Len)} {
			if err := writeU32(w, v); err != nil {
				return err
			}
		}
	}
	if err := writeU32(w, uint32(len(e.KernelNames))); err != nil {
		return err
	}
	for _, k := range e.KernelNames {
		if err := writeString(w, k); err != nil {
			return err
		}
	}
	if err := writeU32(w, uint32(len(e.Code))); err != nil {
		return err
	}
	for _, in := range e.Code {
		if err := writeInstruction(w, in); err != nil {
			return err
		}
	}
	if err := writeU32(w, uint32(len(e.Consts))); err != nil {
		return err
	}
	for i, c := range e.Consts {
		if _, err := c.WriteTo(w); err != nil {
			return err
		}
		if err := writeU32(w, uint32(e.ConstUnits[i])); err != nil {
			return err
		}
	}
	return nil
}

// ReadExecutable deserializes an executable. Kernels are unlinked; call
// LinkKernels with the platform's kernel registry before running.
func ReadExecutable(r io.Reader) (*Executable, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("vm: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("vm: bad magic %q", head)
	}
	ver, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, &VersionError{Got: ver, Want: version}
	}
	e := NewExecutable()
	nFuncs, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if nFuncs > 1<<20 {
		return nil, fmt.Errorf("vm: implausible function count %d", nFuncs)
	}
	for i := 0; i < int(nFuncs); i++ {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		var vals [4]uint32
		for j := range vals {
			vals[j], err = readU32(br)
			if err != nil {
				return nil, err
			}
		}
		e.AddFunc(VMFunc{Name: name, NumParams: int(vals[0]), RegCount: int(vals[1]), Start: int(vals[2]), Len: int(vals[3])})
	}
	nKernels, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if nKernels > 1<<20 {
		return nil, fmt.Errorf("vm: implausible kernel count %d", nKernels)
	}
	for i := 0; i < int(nKernels); i++ {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		e.KernelNames = append(e.KernelNames, name)
	}
	nCode, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if nCode > 1<<24 {
		return nil, fmt.Errorf("vm: implausible instruction count %d", nCode)
	}
	e.Code = make([]Instruction, nCode)
	for i := range e.Code {
		e.Code[i], err = readInstruction(br)
		if err != nil {
			return nil, fmt.Errorf("vm: instruction %d: %w", i, err)
		}
	}
	nConsts, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if nConsts > 1<<24 {
		return nil, fmt.Errorf("vm: implausible constant count %d", nConsts)
	}
	for i := 0; i < int(nConsts); i++ {
		t, err := tensor.ReadFrom(br)
		if err != nil {
			return nil, fmt.Errorf("vm: constant %d: %w", i, err)
		}
		units, err := readU32(br)
		if err != nil {
			return nil, fmt.Errorf("vm: constant %d: %w", i, err)
		}
		if units > math.MaxInt32 {
			return nil, fmt.Errorf("vm: constant %d: implausible units %d", i, units)
		}
		e.AddPackedConst(t, int(units))
	}
	return e, nil
}

func writeInstruction(w io.Writer, in Instruction) error {
	// Fixed head: opcode + dst/a/b + imm + offsets + dtype + device.
	head := make([]byte, 1)
	head[0] = byte(in.Op)
	if _, err := w.Write(head); err != nil {
		return err
	}
	for _, v := range []int64{int64(in.Dst), int64(in.A), int64(in.B), in.Imm, int64(in.Off1), int64(in.Off2), int64(in.DType), int64(in.Device), int64(in.DeviceID)} {
		if err := writeI64(w, v); err != nil {
			return err
		}
	}
	if err := writeU32(w, uint32(len(in.Args))); err != nil {
		return err
	}
	for _, r := range in.Args {
		if err := writeI64(w, int64(r)); err != nil {
			return err
		}
	}
	if err := writeU32(w, uint32(len(in.Shape))); err != nil {
		return err
	}
	for _, d := range in.Shape {
		if err := writeI64(w, int64(d)); err != nil {
			return err
		}
	}
	return nil
}

func readInstruction(r io.Reader) (Instruction, error) {
	var in Instruction
	head := make([]byte, 1)
	if _, err := io.ReadFull(r, head); err != nil {
		return in, err
	}
	if int(head[0]) >= NumOpcodes {
		return in, fmt.Errorf("bad opcode %d", head[0])
	}
	in.Op = Opcode(head[0])
	vals := make([]int64, 9)
	for i := range vals {
		v, err := readI64(r)
		if err != nil {
			return in, err
		}
		vals[i] = v
	}
	in.Dst, in.A, in.B = int(vals[0]), int(vals[1]), int(vals[2])
	in.Imm = vals[3]
	in.Off1, in.Off2 = int(vals[4]), int(vals[5])
	in.DType = uint8(vals[6])
	in.Device = uint8(vals[7])
	in.DeviceID = int(vals[8])
	nArgs, err := readU32(r)
	if err != nil {
		return in, err
	}
	if nArgs > 1<<16 {
		return in, fmt.Errorf("implausible arg count %d", nArgs)
	}
	if nArgs > 0 {
		in.Args = make([]Reg, nArgs)
		for i := range in.Args {
			v, err := readI64(r)
			if err != nil {
				return in, err
			}
			in.Args[i] = int(v)
		}
	}
	nShape, err := readU32(r)
	if err != nil {
		return in, err
	}
	if nShape > 1<<8 {
		return in, fmt.Errorf("implausible shape rank %d", nShape)
	}
	if nShape > 0 {
		in.Shape = make([]int, nShape)
		for i := range in.Shape {
			v, err := readI64(r)
			if err != nil {
				return in, err
			}
			in.Shape[i] = int(v)
		}
	}
	return in, nil
}

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func writeI64(w io.Writer, v int64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	_, err := w.Write(buf[:])
	return err
}

func readI64(r io.Reader) (int64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(buf[:])), nil
}

func writeString(w io.Writer, s string) error {
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
