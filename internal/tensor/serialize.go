package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary layout (little-endian):
//
//	u8   dtype
//	u32  rank
//	u64  dims[rank]
//	u64  payload element count (redundant with dims; checked on load)
//	...  payload (elements in row-major order)
//
// The format backs the constant pool of serialized VM executables. It is
// intentionally simple: constants dominate executable size, so the only
// property that matters is streaming without reflection.

// WriteTo serializes the tensor to w.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	var n int64
	hdr := make([]byte, 1+4)
	hdr[0] = byte(t.dtype)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(t.shape)))
	k, err := w.Write(hdr)
	n += int64(k)
	if err != nil {
		return n, err
	}
	buf8 := make([]byte, 8)
	for _, d := range t.shape {
		binary.LittleEndian.PutUint64(buf8, uint64(d))
		k, err = w.Write(buf8)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	binary.LittleEndian.PutUint64(buf8, uint64(t.NumElements()))
	k, err = w.Write(buf8)
	n += int64(k)
	if err != nil {
		return n, err
	}
	payload := t.encodePayload()
	k, err = w.Write(payload)
	n += int64(k)
	return n, err
}

func (t *Tensor) encodePayload() []byte {
	n := t.NumElements()
	out := make([]byte, n*t.dtype.Size())
	switch t.dtype {
	case Float32:
		for i, v := range t.f32 {
			binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
		}
	case Float64:
		for i, v := range t.f64 {
			binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
		}
	case Int32:
		for i, v := range t.i32 {
			binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
		}
	case Int64:
		for i, v := range t.i64 {
			binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
		}
	case Bool:
		for i, v := range t.b {
			if v {
				out[i] = 1
			}
		}
	}
	return out
}

// Reader reads little-endian fields from R through one scratch array it
// owns. A buffer handed to an io.Reader escapes to the heap, so a buffer per
// field is an allocation per field; through a Reader it is one per stream.
type Reader struct {
	R   io.Reader
	buf [8]byte
}

// Next reads the next n ≤ 8 bytes into the scratch array; they are valid
// until the following read.
func (r *Reader) Next(n int) ([]byte, error) {
	b := r.buf[:n]
	_, err := io.ReadFull(r.R, b)
	return b, err
}

// U8 reads one byte.
func (r *Reader) U8() (uint8, error) {
	b, err := r.Next(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() (uint32, error) {
	b, err := r.Next(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() (uint64, error) {
	b, err := r.Next(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// ReadFrom deserializes a tensor previously written by WriteTo.
func ReadFrom(r io.Reader) (*Tensor, error) { return (&Reader{R: r}).Tensor() }

// Tensor reads a tensor previously written by WriteTo.
func (r *Reader) Tensor() (*Tensor, error) {
	dtype, err := r.U8()
	if err != nil {
		return nil, fmt.Errorf("tensor: reading header: %w", err)
	}
	rank, err := r.U32()
	if err != nil {
		return nil, fmt.Errorf("tensor: reading header: %w", err)
	}
	dt := DType(dtype)
	if dt > Bool {
		return nil, fmt.Errorf("tensor: corrupt dtype byte %d", dtype)
	}
	if rank > 64 {
		return nil, fmt.Errorf("tensor: implausible rank %d", rank)
	}
	shape := make(Shape, rank)
	for i := range shape {
		d, err := r.U64()
		if err != nil {
			return nil, fmt.Errorf("tensor: reading dim %d: %w", i, err)
		}
		if d > math.MaxInt32 {
			return nil, fmt.Errorf("tensor: implausible dimension %d", d)
		}
		shape[i] = int(d)
	}
	count, err := r.U64()
	if err != nil {
		return nil, fmt.Errorf("tensor: reading element count: %w", err)
	}
	n, ok := elementCount(shape)
	if !ok {
		return nil, fmt.Errorf("tensor: shape %v has too many elements", shape)
	}
	if count != uint64(n) {
		return nil, fmt.Errorf("tensor: element count %d does not match shape %v", count, shape)
	}
	// The payload is read before the tensor is built, and grows only as
	// bytes arrive: a header claiming more than the stream holds costs at
	// most what was read.
	size := n * dt.Size()
	payload, err := io.ReadAll(io.LimitReader(r.R, int64(size)))
	if err == nil && len(payload) < size {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("tensor: reading payload: %w", err)
	}
	t := New(dt, shape...)
	switch dt {
	case Float32:
		for i := range t.f32 {
			t.f32[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[i*4:]))
		}
	case Float64:
		for i := range t.f64 {
			t.f64[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	case Int32:
		for i := range t.i32 {
			t.i32[i] = int32(binary.LittleEndian.Uint32(payload[i*4:]))
		}
	case Int64:
		for i := range t.i64 {
			t.i64[i] = int64(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	case Bool:
		for i := range t.b {
			t.b[i] = payload[i] != 0
		}
	}
	return t, nil
}

// elementCount is shape's element count, or false when its payload could
// not be addressed: past maxElements elements of at most 8 bytes each.
func elementCount(shape Shape) (int, bool) {
	const maxElements = math.MaxInt / 8
	if slices.Contains(shape, 0) {
		return 0, true
	}
	n := 1
	for _, d := range shape {
		if n > maxElements/d {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// String renders a compact description such as "Tensor[(2, 3), float32]".
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor[%s, %s]", t.shape, t.dtype)
}
