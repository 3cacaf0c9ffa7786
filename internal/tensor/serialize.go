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
	b := binary.LittleEndian.AppendUint32([]byte{byte(t.dtype)}, uint32(len(t.shape)))
	for _, d := range t.shape {
		b = binary.LittleEndian.AppendUint64(b, uint64(d))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(t.NumElements()))
	b, err := binary.Append(b, binary.LittleEndian, t.data())
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// data is the tensor's typed backing slice.
func (t *Tensor) data() any {
	switch t.dtype {
	case Float32:
		return t.f32
	case Float64:
		return t.f64
	case Int32:
		return t.i32
	case Int64:
		return t.i64
	}
	return t.b
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
	if n == 0 {
		return New(dt, shape...), nil
	}
	t, size := &Tensor{dtype: dt, shape: shape}, dt.Size()
	switch dt {
	case Float32:
		t.f32, err = readPayload[float32](r.R, n, size)
	case Float64:
		t.f64, err = readPayload[float64](r.R, n, size)
	case Int32:
		t.i32, err = readPayload[int32](r.R, n, size)
	case Int64:
		t.i64, err = readPayload[int64](r.R, n, size)
	case Bool:
		t.b, err = readPayload[bool](r.R, n, size)
	}
	if err != nil {
		return nil, fmt.Errorf("tensor: reading payload: %w", err)
	}
	return t, nil
}

// payloadChunk is how many payload bytes readPayload reads at a time.
const payloadChunk = 64 << 10

// readPayload reads n elements of size bytes each from r in chunks of at
// most payloadChunk bytes, decoding each chunk straight into the result.
// The result grows only as bytes arrive — doubling, and jumping to n where
// doubling would pass n/2 — so a header claiming more than the stream holds
// costs a small multiple of what was read, and a complete read allocates at
// most twice the payload plus one chunk.
func readPayload[E bool | int32 | int64 | float32 | float64](r io.Reader, n, size int) ([]E, error) {
	chunk := make([]byte, min(n*size, payloadChunk))
	var out []E
	for len(out) < n {
		k := min(n-len(out), len(chunk)/size)
		if _, err := io.ReadFull(r, chunk[:k*size]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		at := len(out)
		if at+k > cap(out) {
			c := max(2*cap(out), at+k)
			if c > n/2 {
				c = n
			}
			out = append(make([]E, 0, c), out...)
		}
		out = out[:at+k]
		if _, err := binary.Decode(chunk[:k*size], binary.LittleEndian, out[at:]); err != nil {
			return nil, err
		}
	}
	return out, nil
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
