package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nimble"
	"nimble/cmd/internal/cli"
	"nimble/models"
)

var (
	testSrvOnce sync.Once
	testSrv     *server
	testSrvErr  error
)

// testServer compiles a small MLP once and serves it through a registry
// (deployed as mlp@v1); handler tests and the fuzz target share it.
func testServer(t testing.TB) *server {
	t.Helper()
	testSrvOnce.Do(func() {
		m := models.NewMLP(models.MLPConfig{In: 8, Hidden: 16, Out: 4, Layers: 1, Seed: 3})
		p, err := nimble.Compile(m.Module)
		if err != nil {
			testSrvErr = err
			return
		}
		reg := nimble.NewRegistry(nimble.WithServeDefaults(nimble.WithWorkers(2), nimble.WithPriorityLanes(2)))
		if _, err := reg.Deploy("mlp", p); err != nil {
			testSrvErr = err
			return
		}
		testSrv = &server{reg: reg, defaultModel: "mlp", maxBody: 1 << 20, start: time.Now()}
	})
	if testSrvErr != nil {
		t.Fatal(testSrvErr)
	}
	return testSrv
}

func postInvoke(t testing.TB, s *server, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/invoke", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.handleInvoke(w, req)
	return w
}

func validBody(rows int) []byte {
	data := make([]float64, rows*8)
	for i := range data {
		data[i] = float64(i%7) * 0.25
	}
	b, _ := json.Marshal(map[string]any{
		"entry": "main",
		"args":  []map[string]any{{"dtype": "float32", "shape": []int{rows, 8}, "data": data}},
	})
	return b
}

var (
	testDecOnce sync.Once
	testDec     *server
	testDecErr  error
)

// testDecoderServer serves the streaming decoder model through a registry
// (deployed as decoder@v1); SSE tests and the SSE fuzz target share it.
func testDecoderServer(t testing.TB) *server {
	t.Helper()
	testDecOnce.Do(func() {
		p, err := nimble.Compile(models.NewDecoder(models.DefaultDecoderConfig()).Module)
		if err != nil {
			testDecErr = err
			return
		}
		reg := nimble.NewRegistry(nimble.WithServeDefaults(
			nimble.WithWorkers(2), nimble.WithMaxBatch(1), nimble.WithPriorityLanes(2)))
		if _, err := reg.Deploy("decoder", p); err != nil {
			testDecErr = err
			return
		}
		testDec = &server{reg: reg, defaultModel: "decoder", maxBody: 1 << 20, start: time.Now()}
	})
	if testDecErr != nil {
		t.Fatal(testDecErr)
	}
	return testDec
}

func postStream(t testing.TB, s *server, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/stream", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.handleStream(w, req)
	return w
}

// sseEvents parses an SSE body into (event, data) pairs, failing on any
// line that is not event:/data:/blank.
func sseEvents(t testing.TB, body string) [][2]string {
	t.Helper()
	var out [][2]string
	var event string
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			out = append(out, [2]string{event, strings.TrimPrefix(line, "data: ")})
		default:
			t.Fatalf("malformed SSE line %q in body:\n%s", line, body)
		}
	}
	return out
}

// TestInvokeHandlerStatusMapping: each rejection class lands on its
// documented status code, and a valid request succeeds.
func TestInvokeHandlerStatusMapping(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"valid", string(validBody(2)), http.StatusOK},
		{"garbage body", `{"entry": "main", "args": [`, http.StatusBadRequest},
		{"not json", `hello`, http.StatusBadRequest},
		{"unknown entry", `{"entry":"nope","args":[]}`, http.StatusNotFound},
		{"wrong arity", `{"entry":"main","args":[]}`, http.StatusBadRequest},
		{"wrong dtype", `{"args":[{"dtype":"float64","shape":[1,8],"data":[0,0,0,0,0,0,0,0]}]}`, http.StatusBadRequest},
		{"shape/data mismatch", `{"args":[{"dtype":"float32","shape":[1,8],"data":[1,2]}]}`, http.StatusBadRequest},
		{"negative dim", `{"args":[{"dtype":"float32","shape":[-1,8],"data":[]}]}`, http.StatusBadRequest},
		{"overflowing shape", `{"args":[{"dtype":"float32","shape":[1073741824,1073741824,1073741824],"data":[]}]}`, http.StatusBadRequest},
		{"wrong static dim", `{"args":[{"dtype":"float32","shape":[1,9],"data":[0,0,0,0,0,0,0,0,0]}]}`, http.StatusBadRequest},
		{"seq on non-list entry", `{"entry":"main","seq":[{"dtype":"float32","shape":[1,8],"data":[0,0,0,0,0,0,0,0]}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postInvoke(t, s, []byte(tc.body))
			if w.Code != tc.want {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, tc.want, w.Body.String())
			}
			var resp map[string]any
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("response is not JSON: %v", err)
			}
			if tc.want != http.StatusOK {
				if _, ok := resp["error"]; !ok {
					t.Errorf("error response carries no error field: %s", w.Body.String())
				}
			}
		})
	}
}

// TestInvokeBodyCap: a body over -max-body answers 413, not a decode 400
// or a dropped connection.
func TestInvokeBodyCap(t *testing.T) {
	s := testServer(t)
	huge := append([]byte(`{"args":[{"data":[`), bytes.Repeat([]byte("1,"), 1<<20)...)
	huge = append(huge, []byte(`1]}]}`)...)
	w := postInvoke(t, s, huge)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", w.Code)
	}
}

// TestInvokeStatusFamilies: the documented error→status contract, pinned
// against wrapped members of each public family.
func TestInvokeStatusFamilies(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{fmt.Errorf("x: %w", nimble.ErrBadInput), http.StatusBadRequest},
		{fmt.Errorf("x: %w", nimble.ErrBadArity), http.StatusBadRequest},
		{fmt.Errorf("x: %w", nimble.ErrUnknownEntry), http.StatusNotFound},
		{fmt.Errorf("x: %w", nimble.ErrUnknownModel), http.StatusNotFound},
		{fmt.Errorf("x: %w", nimble.ErrNoCanary), http.StatusConflict},
		{fmt.Errorf("x: %w", nimble.ErrOverloaded), http.StatusTooManyRequests},
		{fmt.Errorf("x: %w", nimble.ErrCanceled), http.StatusGatewayTimeout},
		{fmt.Errorf("x: %w", context.DeadlineExceeded), http.StatusInternalServerError},
		{fmt.Errorf("x: %w", nimble.ErrClosed), http.StatusServiceUnavailable},
		{fmt.Errorf("x: %w", nimble.ErrInternal), http.StatusInternalServerError},
		{errors.New("mystery"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := invokeStatus(tc.err); got != tc.want {
			t.Errorf("invokeStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestHealthzHealthy: a fresh registry reports ok with a 200, one health
// block per live model version.
func TestHealthzHealthy(t *testing.T) {
	s := testServer(t)
	w := httptest.NewRecorder()
	s.handleHealthz(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", w.Code)
	}
	var resp struct {
		OK       bool `json:"ok"`
		Versions []struct {
			Model    string `json:"model"`
			Version  string `json:"version"`
			Degraded bool   `json:"degraded"`
			Entries  []struct {
				Entry   string `json:"entry"`
				Healthy bool   `json:"healthy"`
			} `json:"entries"`
		} `json:"versions"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || len(resp.Versions) == 0 {
		t.Fatalf("healthz body = %s", w.Body.String())
	}
	v := resp.Versions[0]
	if v.Model != "mlp" || v.Version != "v1" || v.Degraded || len(v.Entries) == 0 || !v.Entries[0].Healthy {
		t.Errorf("healthz version block = %+v", v)
	}
}

// TestInvokeModelRouting: the "model" body field addresses the registry —
// unpinned, @latest, and pinned forms serve; unknown names and stale pins
// are 404; malformed references are 400. All decided before any work runs.
func TestInvokeModelRouting(t *testing.T) {
	s := testServer(t)
	withModel := func(model string) []byte {
		m := map[string]any{}
		_ = json.Unmarshal(validBody(1), &m)
		m["model"] = model
		b, _ := json.Marshal(m)
		return b
	}
	cases := []struct {
		model string
		want  int
	}{
		{"mlp", http.StatusOK},
		{"mlp@v1", http.StatusOK},
		{"mlp@latest", http.StatusOK},
		{"mlp@v999", http.StatusNotFound},
		{"nope", http.StatusNotFound},
		{"nope@v1", http.StatusNotFound},
		{"mlp@", http.StatusBadRequest},
		{"@", http.StatusBadRequest},
		{"@v1", http.StatusBadRequest},
		{"mlp@v1@v2", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.model, func(t *testing.T) {
			w := postInvoke(t, s, withModel(tc.model))
			if w.Code != tc.want {
				t.Fatalf("model %q status = %d, want %d (body %s)", tc.model, w.Code, tc.want, w.Body.String())
			}
			var resp map[string]any
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("response is not JSON: %s", w.Body.String())
			}
		})
	}
}

// TestAdminLifecycle drives the control plane over HTTP: hot-swap deploy,
// canary deploy, promote, rollback, and the error surface of each.
func TestAdminLifecycle(t *testing.T) {
	// A private registry: the admin deploy rebuilds the full-size cli
	// model, which must not shadow the shared fixture's small-MLP v1.
	m, err := cli.Build("mlp")
	if err != nil {
		t.Fatal(err)
	}
	reg := nimble.NewRegistry(nimble.WithServeDefaults(nimble.WithWorkers(1)))
	defer reg.Close()
	if _, err := reg.Deploy("mlp", m.Program); err != nil {
		t.Fatal(err)
	}
	s := &server{reg: reg, defaultModel: "mlp", maxBody: 1 << 20, start: time.Now()}

	post := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		switch path {
		case "/admin/deploy":
			s.handleDeploy(w, req)
		case "/admin/promote":
			s.handlePromote(w, req)
		case "/admin/rollback":
			s.handleRollback(w, req)
		}
		return w
	}

	// Hot-swap: a fresh build becomes v2 stable.
	w := post("/admin/deploy", `{"model":"mlp"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("deploy status = %d: %s", w.Code, w.Body.String())
	}
	var dep struct {
		Version string `json:"version"`
		State   string `json:"state"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dep); err != nil {
		t.Fatal(err)
	}
	if dep.Version != "v2" || dep.State != "stable" {
		t.Fatalf("deploy response = %s", w.Body.String())
	}

	// Promote with nothing in flight is a 409.
	if w := post("/admin/promote", `{"model":"mlp"}`); w.Code != http.StatusConflict {
		t.Fatalf("promote without canary status = %d, want 409: %s", w.Code, w.Body.String())
	}

	// Canary rollout, then promote it.
	w = post("/admin/deploy", `{"model":"mlp","canary":25}`)
	if w.Code != http.StatusOK {
		t.Fatalf("canary deploy status = %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dep); err != nil {
		t.Fatal(err)
	}
	if dep.Version != "v3" || dep.State != "canary" {
		t.Fatalf("canary deploy response = %s", w.Body.String())
	}
	w = post("/admin/promote", `{"model":"mlp"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("promote status = %d: %s", w.Code, w.Body.String())
	}

	// Another rollout, rolled back.
	if w := post("/admin/deploy", `{"model":"mlp","canary":10}`); w.Code != http.StatusOK {
		t.Fatalf("second canary deploy status = %d: %s", w.Code, w.Body.String())
	}
	if w := post("/admin/rollback", `{"model":"mlp"}`); w.Code != http.StatusOK {
		t.Fatalf("rollback status = %d: %s", w.Code, w.Body.String())
	}

	// Error surface: bad model name, missing model, out-of-range canary,
	// corrupt executable, unknown promote target, malformed body.
	corrupt := filepath.Join(t.TempDir(), "corrupt.nimble")
	if err := os.WriteFile(corrupt, []byte("NMBL\x02\x00\x00\x00\xff\xff"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/admin/deploy", `{"model":"not-a-model"}`, http.StatusBadRequest},
		{"/admin/deploy", `{}`, http.StatusBadRequest},
		{"/admin/deploy", `{"model":"mlp","canary":150}`, http.StatusBadRequest},
		{"/admin/deploy", `{"model":`, http.StatusBadRequest},
		{"/admin/deploy", fmt.Sprintf(`{"model":"mlp","exe":%q}`, corrupt), http.StatusBadRequest},
		{"/admin/promote", `{"model":"ghost"}`, http.StatusNotFound},
		{"/admin/rollback", `{"model":"ghost"}`, http.StatusNotFound},
		{"/admin/promote", `{}`, http.StatusBadRequest},
	} {
		if w := post(tc.path, tc.body); w.Code != tc.want {
			t.Errorf("%s %s status = %d, want %d: %s", tc.path, tc.body, w.Code, tc.want, w.Body.String())
		}
	}

	// The listing reflects the surviving stable version.
	wm := httptest.NewRecorder()
	s.handleModels(wm, httptest.NewRequest(http.MethodGet, "/models", nil))
	var list struct {
		Models []struct {
			Name     string `json:"name"`
			Versions []struct {
				Version string `json:"version"`
				State   string `json:"state"`
			} `json:"versions"`
		} `json:"models"`
	}
	if err := json.Unmarshal(wm.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 1 || len(list.Models[0].Versions) != 1 ||
		list.Models[0].Versions[0].Version != "v3" || list.Models[0].Versions[0].State != "stable" {
		t.Fatalf("/models after lifecycle = %s", wm.Body.String())
	}
}

// TestStreamHandlerTokens: a valid decode request over /stream answers 200
// text/event-stream, one flushed token event per generated token, and a
// terminal done event whose token sequence matches the non-streaming
// /invoke output of the same entry.
func TestStreamHandlerTokens(t *testing.T) {
	s := testDecoderServer(t)
	body := []byte(`{"entry":"generate","args":[{"dtype":"int64","shape":[1],"data":[5]}]}`)

	wInv := postInvoke(t, s, body)
	if wInv.Code != http.StatusOK {
		t.Fatalf("/invoke status = %d: %s", wInv.Code, wInv.Body.String())
	}
	var inv struct {
		Output struct {
			Data []float64 `json:"data"`
		} `json:"output"`
	}
	if err := json.Unmarshal(wInv.Body.Bytes(), &inv); err != nil {
		t.Fatal(err)
	}

	w := postStream(t, s, body)
	if w.Code != http.StatusOK {
		t.Fatalf("/stream status = %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	if !w.Flushed {
		t.Error("stream response never flushed")
	}
	events := sseEvents(t, w.Body.String())
	var got []float64
	for _, ev := range events[:len(events)-1] {
		if ev[0] != "token" {
			t.Fatalf("mid-stream event %q, want token", ev[0])
		}
		var tok struct {
			Data []float64 `json:"data"`
		}
		if err := json.Unmarshal([]byte(ev[1]), &tok); err != nil {
			t.Fatalf("token event data %q: %v", ev[1], err)
		}
		got = append(got, tok.Data...)
	}
	last := events[len(events)-1]
	if last[0] != "done" {
		t.Fatalf("terminal event %q (%s), want done", last[0], last[1])
	}
	var done struct {
		Tokens int `json:"tokens"`
		Output struct {
			Data []float64 `json:"data"`
		} `json:"output"`
	}
	if err := json.Unmarshal([]byte(last[1]), &done); err != nil {
		t.Fatal(err)
	}
	if want := models.DefaultDecoderConfig().MaxNew; done.Tokens != want || len(got) != want {
		t.Fatalf("streamed %d token events, done reports %d, want %d", len(got), done.Tokens, want)
	}
	if fmt.Sprint(got) != fmt.Sprint(inv.Output.Data) || fmt.Sprint(done.Output.Data) != fmt.Sprint(inv.Output.Data) {
		t.Errorf("streamed tokens diverge from /invoke:\n  stream %v\n  done   %v\n  invoke %v",
			got, done.Output.Data, inv.Output.Data)
	}
}

// TestStreamHandlerOpenErrors: stream-open failures are plain status
// responses with the full /invoke mapping — never a half-open event stream.
func TestStreamHandlerOpenErrors(t *testing.T) {
	s := testDecoderServer(t)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"garbage body", `{"entry": "generate", "args": [`, http.StatusBadRequest},
		{"unknown entry", `{"entry":"nope","args":[]}`, http.StatusNotFound},
		{"wrong arity", `{"entry":"generate","args":[]}`, http.StatusBadRequest},
		{"wrong dtype", `{"entry":"generate","args":[{"dtype":"float32","shape":[1],"data":[5]}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postStream(t, s, []byte(tc.body))
			if w.Code != tc.want {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, tc.want, w.Body.String())
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("open error Content-Type = %q, want application/json", ct)
			}
			var resp map[string]any
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("open error is not JSON: %s", w.Body.String())
			}
		})
	}
}

// FuzzInvokeHandler: no request body — malformed JSON, hostile shapes,
// deep nesting, binary junk — may crash the handler or surface as a 5xx.
// With no fault injection configured every failure is the client's fault:
// the contract is 2xx or 4xx, always JSON, never a panic.
func FuzzInvokeHandler(f *testing.F) {
	f.Add(validBody(1))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"entry":"main"}`))
	f.Add([]byte(`{"entry":"main","args":null}`))
	f.Add([]byte(`{"entry":"main","args":[{}]}`))
	f.Add([]byte(`{"args":[{"dtype":"float32","shape":[2,8]}]}`))
	f.Add([]byte(`{"args":[{"shape":[0,8],"data":[]}]}`))
	f.Add([]byte(`{"args":[{"adt":{"tag":0}}]}`))
	f.Add([]byte(`{"args":[{"tuple":[]}]}`))
	f.Add([]byte(`{"seq":[{"dtype":"float32","shape":[8],"data":[1,2,3,4,5,6,7,8]}]}`))
	f.Add([]byte(`{"args":[{"dtype":"float32","shape":[9223372036854775807,2],"data":[]}]}`))
	f.Add([]byte(`{"entry":"main","priority":1,"deadline_budget_ms":50,"args":[{"dtype":"float32","shape":[2,8],"data":[0]}]}`))
	f.Add([]byte(`{"entry":"main","priority":-3,"args":[]}`))
	f.Add([]byte(`{"entry":"main","deadline_budget_ms":-0.5,"args":[]}`))
	f.Add([]byte(`{"entry":"main","priority":9999999,"deadline_budget_ms":1e300,"args":[]}`))
	f.Add([]byte(strings.Repeat(`{"args":[`, 100)))
	f.Add([]byte("\x00\xff\xfe junk"))
	f.Add([]byte(`{"model":"mlp","route_key":"u1","entry":"main","args":[{"dtype":"float32","shape":[1,8],"data":[0,0,0,0,0,0,0,0]}]}`))
	f.Add([]byte(`{"model":"mlp@v1","entry":"main","args":[]}`))
	f.Add([]byte(`{"model":"mlp@latest","entry":"main","args":[]}`))
	f.Add([]byte(`{"model":"mlp@v999","entry":"main","args":[]}`))
	f.Add([]byte(`{"model":"mlp@","entry":"main","args":[]}`))
	f.Add([]byte(`{"model":"@","entry":"main","args":[]}`))
	f.Add([]byte(`{"model":"@v1","entry":"main","args":[]}`))
	f.Add([]byte(`{"model":"mlp@v1@v2","entry":"main","args":[]}`))
	f.Add([]byte(`{"model":"ghost","entry":"main","args":[]}`))
	f.Add([]byte(`{"model":12,"entry":"main","args":[]}`))
	f.Add([]byte(`{"model":"` + strings.Repeat("m", 4096) + `","entry":"main","args":[]}`))

	s := testServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		w := postInvoke(t, s, body)
		if w.Code >= 500 {
			t.Fatalf("5xx (%d) for client-supplied body %q: %s", w.Code, body, w.Body.String())
		}
		var resp map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("non-JSON response for body %q: %s", body, w.Body.String())
		}
	})
}

// FuzzSSEHandler: the /stream contract under hostile bodies. Every request
// either fails the open with a non-5xx JSON status response, or commits to
// a 200 event stream made exclusively of well-formed event:/data: frames
// ending in done or error — and never panics the handler.
func FuzzSSEHandler(f *testing.F) {
	f.Add([]byte(`{"entry":"generate","args":[{"dtype":"int64","shape":[1],"data":[5]}]}`))
	f.Add([]byte(`{"entry":"generate_sampled","args":[{"dtype":"int64","shape":[1],"data":[99]}]}`))
	f.Add([]byte(`{"entry":"generate","args":[{"dtype":"int64","shape":[1],"data":[-1]}]}`))
	f.Add([]byte(`{"entry":"generate","args":[{"dtype":"int64","shape":[1],"data":[123456789]}]}`))
	f.Add([]byte(`{"entry":"generate","args":[{"dtype":"float32","shape":[1],"data":[5]}]}`))
	f.Add([]byte(`{"entry":"generate","args":[{"dtype":"int64","shape":[2],"data":[5,6]}]}`))
	f.Add([]byte(`{"entry":"nope","args":[]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"entry":"generate","args":[{"adt":{"tag":0}}]}`))
	f.Add([]byte(`{"entry":"generate","seq":[{"dtype":"int64","shape":[1],"data":[5]}]}`))
	f.Add([]byte(`{"entry":"generate","priority":1,"deadline_budget_ms":30000,"args":[{"dtype":"int64","shape":[1],"data":[5]}]}`))
	f.Add([]byte(`{"entry":"generate","priority":-1,"args":[{"dtype":"int64","shape":[1],"data":[5]}]}`))
	f.Add([]byte(`{"entry":"generate","deadline_budget_ms":0.001,"args":[{"dtype":"int64","shape":[1],"data":[5]}]}`))
	f.Add([]byte("\x00\xff\xfe junk"))
	f.Add([]byte(`{"model":"decoder","route_key":"s1","entry":"generate","args":[{"dtype":"int64","shape":[1],"data":[5]}]}`))
	f.Add([]byte(`{"model":"decoder@v1","entry":"generate","args":[{"dtype":"int64","shape":[1],"data":[5]}]}`))
	f.Add([]byte(`{"model":"decoder@v42","entry":"generate","args":[{"dtype":"int64","shape":[1],"data":[5]}]}`))
	f.Add([]byte(`{"model":"decoder@","entry":"generate","args":[]}`))
	f.Add([]byte(`{"model":"decoder@v1@v1","entry":"generate","args":[]}`))
	f.Add([]byte(`{"model":"missing","entry":"generate","args":[]}`))

	s := testDecoderServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		w := postStream(t, s, body)
		if ct := w.Header().Get("Content-Type"); ct == "text/event-stream" {
			if w.Code != http.StatusOK {
				t.Fatalf("event stream with status %d for body %q", w.Code, body)
			}
			events := sseEvents(t, w.Body.String())
			if len(events) == 0 {
				t.Fatalf("committed stream carries no events for body %q", body)
			}
			for _, ev := range events[:len(events)-1] {
				if ev[0] != "token" {
					t.Fatalf("mid-stream event %q for body %q", ev[0], body)
				}
			}
			if last := events[len(events)-1][0]; last != "done" && last != "error" {
				t.Fatalf("stream for body %q ends with %q, want done or error", body, last)
			}
			return
		}
		if w.Code >= 500 {
			t.Fatalf("5xx (%d) open failure for body %q: %s", w.Code, body, w.Body.String())
		}
		var resp map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("non-JSON open failure for body %q: %s", body, w.Body.String())
		}
	})
}

// TestInvokeSchedulingFields: the "priority" and "deadline_budget_ms" body
// fields map onto InvokeOptions — valid values are accepted, negatives are
// a 400 before any work is admitted.
func TestInvokeSchedulingFields(t *testing.T) {
	s := testServer(t)
	withHints := func(prio any, budget any) []byte {
		m := map[string]any{}
		_ = json.Unmarshal(validBody(1), &m)
		if prio != nil {
			m["priority"] = prio
		}
		if budget != nil {
			m["deadline_budget_ms"] = budget
		}
		b, _ := json.Marshal(m)
		return b
	}
	if w := postInvoke(t, s, withHints(1, 5000)); w.Code != http.StatusOK {
		t.Errorf("priority+budget invoke status = %d: %s", w.Code, w.Body.String())
	}
	if w := postInvoke(t, s, withHints(99, nil)); w.Code != http.StatusOK {
		t.Errorf("out-of-range priority must clamp, not fail: %d: %s", w.Code, w.Body.String())
	}
	if w := postInvoke(t, s, withHints(-1, nil)); w.Code != http.StatusBadRequest {
		t.Errorf("negative priority status = %d, want 400", w.Code)
	}
	if w := postInvoke(t, s, withHints(nil, -5)); w.Code != http.StatusBadRequest {
		t.Errorf("negative budget status = %d, want 400", w.Code)
	}
}

// TestStreamSchedulingFields: the same hints ride an SSE request and the
// stream still completes.
func TestStreamSchedulingFields(t *testing.T) {
	s := testDecoderServer(t)
	body := []byte(`{"entry":"generate","args":[{"dtype":"int64","shape":[1],"data":[5]}],"priority":1,"deadline_budget_ms":30000}`)
	w := postStream(t, s, body)
	if w.Code != http.StatusOK {
		t.Fatalf("/stream status = %d: %s", w.Code, w.Body.String())
	}
	ev := sseEvents(t, w.Body.String())
	if len(ev) == 0 || ev[len(ev)-1][0] != "done" {
		t.Fatalf("stream with scheduling hints did not finish with done: %v", ev)
	}
}

// TestStreamExpiredBudgetSheds: a deadline budget that has run out by the
// time the request is admitted is shed as unmeetable (429 with
// Retry-After) even as a fresh server's first request, before any service
// time is known; it must not be admitted and then fail the open as a 504
// cancellation.
func TestStreamExpiredBudgetSheds(t *testing.T) {
	p, err := nimble.Compile(models.NewDecoder(models.DefaultDecoderConfig()).Module)
	if err != nil {
		t.Fatal(err)
	}
	reg := nimble.NewRegistry(nimble.WithServeDefaults(nimble.WithWorkers(1)))
	defer reg.Close()
	if _, err := reg.Deploy("decoder", p); err != nil {
		t.Fatal(err)
	}
	s := &server{reg: reg, defaultModel: "decoder", maxBody: 1 << 20, start: time.Now()}
	w := postStream(t, s, []byte(`{"entry":"generate","deadline_budget_ms":0.001,"args":[{"dtype":"int64","shape":[1],"data":[5]}]}`))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("expired-budget open status = %d, want 429 (body %s)", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("expired-budget shed carries no Retry-After")
	}
}

// TestMetricsEndpoint: /metrics speaks the Prometheus text format and
// carries the scheduler series after a stream has run.
func TestMetricsEndpoint(t *testing.T) {
	s := testDecoderServer(t)
	// Drive one stream so scheduler counters exist.
	if w := postStream(t, s, []byte(`{"entry":"generate","args":[{"dtype":"int64","shape":[1],"data":[3]}]}`)); w.Code != http.StatusOK {
		t.Fatalf("stream status = %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.handleMetrics(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE nimble_pool_invocations_total counter",
		`nimble_pool_workers{model="decoder",version="v1"} 2`,
		`nimble_version_canary{model="decoder",version="v1"} 0`,
		`nimble_gate_admitted_total{model="decoder",version="v1",entry="generate"}`,
		`nimble_sched_submitted_total{model="decoder",version="v1",entry="generate"}`,
		`nimble_sched_peak_occupancy{model="decoder",version="v1",entry="generate"}`,
		`nimble_sched_step_p99_seconds{model="decoder",version="v1",entry="generate"}`,
		`nimble_entry_healthy{model="decoder",version="v1",entry="generate"} 1`,
		"nimble_shared_storage_resident_bytes",
		"nimble_models 1",
		"nimble_up 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every non-comment line is "name{labels} value" with a parseable value.
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("metrics line %q: value: %v", line, err)
		}
	}
}
