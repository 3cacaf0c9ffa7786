package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"nimble"
	"nimble/tensor"
)

// wireValue is nimble-serve's JSON form of a nimble.Value: a tensor
// (dtype/shape/data) or an ADT (constructor tag and fields).
type wireValue struct {
	DType string    `json:"dtype,omitempty"`
	Shape []int     `json:"shape,omitempty"`
	Data  []float64 `json:"data,omitempty"`
	ADT   *wireADT  `json:"adt,omitempty"`
}

type wireADT struct {
	Tag    int         `json:"tag"`
	Fields []wireValue `json:"fields,omitempty"`
}

func toWire(v nimble.Value) (wireValue, error) {
	switch v.Kind() {
	case nimble.KindTensor:
		t, _ := v.Tensor()
		return wireValue{DType: t.DType().String(), Shape: t.Shape(), Data: t.AsF64()}, nil
	case nimble.KindADT:
		adt := &wireADT{Tag: v.Tag()}
		for _, f := range v.Fields() {
			w, err := toWire(f)
			if err != nil {
				return wireValue{}, err
			}
			adt.Fields = append(adt.Fields, w)
		}
		return wireValue{ADT: adt}, nil
	}
	return wireValue{}, fmt.Errorf("benchmark: cannot encode a %s value", v.Kind())
}

func (w wireValue) tensor() (*tensor.Tensor, error) {
	n := 1
	for _, d := range w.Shape {
		n *= d
	}
	if len(w.Data) != n {
		return nil, fmt.Errorf("shape %v wants %d values, got %d", w.Shape, n, len(w.Data))
	}
	switch w.DType {
	case "float32":
		data := make([]float32, n)
		for i, v := range w.Data {
			data[i] = float32(v)
		}
		return tensor.FromF32(data, w.Shape...), nil
	case "int64":
		data := make([]int64, n)
		for i, v := range w.Data {
			data[i] = int64(v)
		}
		return tensor.FromI64(data, w.Shape...), nil
	}
	return nil, fmt.Errorf("unexpected dtype %q", w.DType)
}

// encodeRequest builds the body both /invoke and /stream accept.
func encodeRequest(m *model, args []nimble.Value) ([]byte, error) {
	req := struct {
		Model string      `json:"model"`
		Entry string      `json:"entry"`
		Args  []wireValue `json:"args"`
	}{Model: m.name, Entry: m.entry}
	for _, a := range args {
		w, err := toWire(a)
		if err != nil {
			return nil, err
		}
		req.Args = append(req.Args, w)
	}
	return json.Marshal(req)
}

// httpSizes accumulates request and response bytes for the http.* layer
// metrics. Only the single-caller ladder writes to it.
type httpSizes struct {
	requests  int
	reqBytes  int64
	respBytes int64
}

// httpCall sends one case to the server and decodes the answer. first is
// when the first output was in hand: the first token event of a stream, or
// the response headers of a unary call.
func httpCall(client *http.Client, base string, m *model, c *testCase, sizes *httpSizes) (r reply, first time.Time, err error) {
	path := "/invoke"
	if m.stream {
		path = "/stream"
	}
	resp, err := client.Post(base+path, "application/json", bytes.NewReader(c.body))
	if err != nil {
		return reply{}, time.Time{}, err
	}
	defer resp.Body.Close()
	body := &countingReader{r: resp.Body}
	defer func() {
		if sizes != nil {
			sizes.requests++
			sizes.reqBytes += int64(len(c.body))
			sizes.respBytes += body.n
		}
	}()
	if resp.StatusCode != http.StatusOK {
		blob, _ := io.ReadAll(io.LimitReader(body, 512))
		return reply{}, time.Time{}, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(blob)))
	}
	if !m.stream {
		first = time.Now()
		var out struct {
			Output wireValue `json:"output"`
		}
		if err := json.NewDecoder(body).Decode(&out); err != nil {
			return reply{}, first, fmt.Errorf("decoding response: %w", err)
		}
		r.out, err = out.Output.tensor()
		return r, first, err
	}
	return readSSE(body)
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// readSSE consumes a /stream response: token events, then a terminal done
// (with the final output) or error event.
func readSSE(body io.Reader) (r reply, first time.Time, err error) {
	br := bufio.NewReader(body)
	event := ""
	for {
		line, rerr := br.ReadString('\n')
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			switch event {
			case "token":
				var w wireValue
				if err := json.Unmarshal(data, &w); err != nil {
					return r, first, fmt.Errorf("decoding token event: %w", err)
				}
				if len(w.Data) != 1 {
					return r, first, fmt.Errorf("token event carries %d values", len(w.Data))
				}
				if first.IsZero() {
					first = time.Now()
				}
				r.tokens = append(r.tokens, int64(w.Data[0]))
			case "done":
				var d struct {
					Output wireValue `json:"output"`
				}
				if err := json.Unmarshal(data, &d); err != nil {
					return r, first, fmt.Errorf("decoding done event: %w", err)
				}
				r.out, err = d.Output.tensor()
				return r, first, err
			case "error":
				return r, first, fmt.Errorf("stream error event: %s", data)
			}
		}
		if rerr != nil {
			return r, first, fmt.Errorf("stream ended without a done event: %w", rerr)
		}
	}
}
