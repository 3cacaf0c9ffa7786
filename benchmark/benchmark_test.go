package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	asc := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{199, 0.95, 190, false}, // 9 samples beyond
		{200, 0.95, 190, true},  // exactly 10 beyond
		{20, 0.50, 10, false},   // 9 below
		{21, 0.50, 11, true},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
	}
	for _, c := range cases {
		got, ok := percentile(asc(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing must not be reportable")
	}
	if d := summarize(asc(999)); d.P99OK {
		t.Error("p99 must be withheld below 1000 samples")
	}
}

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	a := poissonSchedule(7, 300, time.Second, 5*time.Second, 256)
	b := poissonSchedule(7, 300, time.Second, 5*time.Second, 256)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, 300, time.Second, 5*time.Second, 256); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 300+1500 {
		t.Fatalf("got %d arrivals, want a fixed 300 warm-up + 1500 measured", len(a))
	}
	measured := 0
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d is due before its predecessor", i)
		}
		if x.due < 0 || x.due >= 6*time.Second || x.caseIdx < 0 || x.caseIdx >= 256 {
			t.Fatalf("arrival %d out of range: %+v", i, x)
		}
		if x.due >= time.Second {
			measured++
		}
	}
	if measured != 1500 {
		t.Fatalf("%d arrivals in the measured window, want 1500", measured)
	}

	bursts := burstSchedule(7, 100*time.Millisecond, 10*time.Millisecond, time.Second, time.Second, []int{16, 8}, []int{256, 64})
	if !reflect.DeepEqual(bursts, burstSchedule(7, 100*time.Millisecond, 10*time.Millisecond, time.Second, time.Second, []int{16, 8}, []int{256, 64})) {
		t.Fatal("same seed gave different burst schedules")
	}
	if len(bursts) != 20*24 {
		t.Fatalf("got %d burst arrivals, want 20 bursts of 24", len(bursts))
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2: 20..30 counts once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // sticks out of the parent: clipped at 100
		{ID: 5, Parent: 3, Start: 25, End: 45},  // grandchild: only its own parent loses it
		{ID: 6, Parent: 0, Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (50 - 10) - (100 - 90),
		2: 20,
		3: 30 - 20,
		4: 30,
		5: 20,
		6: 60,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(valid bool, fail float64, vals map[string]metric) *resultFile {
		return &resultFile{Workloads: []*workloadResult{{Name: "w", Valid: valid, FailShare: fail, Metrics: vals}}}
	}
	full := func(p50, ttft, goodput float64, n int) map[string]metric {
		return map[string]metric{
			"setup_s":        {Value: 1, N: 5},
			"latency_p50_ms": {Value: p50, N: n},
			"ttft_p50_ms":    {Value: ttft, N: n},
			"goodput_rps":    {Value: goodput, N: n},
		}
	}
	verdicts := func(a, b *resultFile) map[string]verdict {
		out := map[string]verdict{}
		for _, r := range compareResults(a, b) {
			out[r.metric] = r.verdict
		}
		return out
	}

	base := mk(true, 0, full(10, 20, 100, 1000))

	// Every bound is 0.25: 24% worse is within, 26% worse is not.
	got := verdicts(base, mk(true, 0, full(12.4, 20, 76, 1000)))
	if got["latency_p50_ms"] != within || got["goodput_rps"] != within || got["fail_share"] != within {
		t.Errorf("24%% slower p50 and 24%% less goodput must be within bounds: %v", got)
	}
	got = verdicts(base, mk(true, 0, full(12.6, 20, 74, 1000)))
	if got["latency_p50_ms"] != regression || got["goodput_rps"] != regression {
		t.Errorf("26%% slower p50 and 26%% less goodput must be regressions: %v", got)
	}
	if got["ttft_p50_ms"] != within {
		t.Errorf("an unchanged metric must be within: %v", got)
	}
	got = verdicts(base, mk(true, 0, full(5, 10, 200, 1000)))
	if got["latency_p50_ms"] != within || got["goodput_rps"] != within {
		t.Errorf("an improvement is never a regression: %v", got)
	}
	got = verdicts(base, mk(true, 0, full(10, 20, 100, 20)))
	if got["latency_p50_ms"] != unresolved || got["goodput_rps"] != within {
		t.Errorf("20 samples do not resolve a p50: %v", got)
	}
	got = verdicts(base, mk(false, 0, full(10, 20, 100, 1000)))
	if got["latency_p50_ms"] != unresolved {
		t.Errorf("an invalid run resolves nothing: %v", got)
	}
	got = verdicts(base, mk(true, 0.002, full(10, 20, 100, 1000)))
	if got["fail_share"] != regression {
		t.Errorf("fail_share up by 0.002 absolute must be a regression: %v", got)
	}
	got = verdicts(base, &resultFile{})
	if got["latency_p50_ms"] != unresolved || got["fail_share"] != unresolved {
		t.Errorf("a missing workload resolves nothing: %v", got)
	}

	// The exit code follows the rows.
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := base.write(pa); err != nil {
		t.Fatal(err)
	}
	if err := mk(true, 0, full(13, 20, 100, 1000)).write(pb); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if code := compareFiles(&buf, pa, pa); code != 0 {
		t.Errorf("a file against itself exited %d:\n%s", code, buf.String())
	}
	if code := compareFiles(&buf, pa, pb); code == 0 {
		t.Errorf("a 30%% slower p50 exited 0:\n%s", buf.String())
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the code's metric and workload
// tables in step with the contract file at the repository root.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q / %q", i, file.Workloads[i], w.name, w.why)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(file.EndToEnd), len(endToEnd))
	}
	for i, s := range endToEnd {
		f := file.EndToEnd[i]
		if f.Name != s.name || f.Unit != s.unit || f.Better != s.better || f.Bound != s.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, f, s)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(file.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		f := file.PerLayer[i]
		if f.Name != s.name || f.Unit != s.unit || f.Better != s.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, f, s)
		}
	}
}

func smokeEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(context.Background(), 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	e.log = io.Discard
	e.warm = 200 * time.Millisecond
	e.setups = 1
	e.caseLimit = 8
	return e
}

// TestSmokeEveryWorkload runs each workload for one second on a handful of
// inputs, untraced and traced, and asserts only what does not depend on
// timing: nothing failed and every metric of the catalogue is present.
// Whether the run is valid is a statement about timing (did the generator
// keep its schedule) and about sample counts a one-second window cannot
// reach, so it is not asserted.
func TestSmokeEveryWorkload(t *testing.T) {
	e := smokeEnv(t)
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(e, w, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %s", w.name, trace, res.Failed, res.Attempted, res.FirstFailure)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			for _, s := range specs {
				if _, ok := res.Metrics[s.name]; !ok {
					t.Errorf("%s trace=%v: metric %s is missing", w.name, trace, s.name)
				}
			}
			if !trace {
				for _, s := range endToEnd {
					if res.Metrics[s.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, s.name, res.Metrics[s.name].Value)
					}
				}
			}
		}
	}
}

// TestWrongOutputFailsTheRun corrupts the references and expects every
// layer's outputs to be counted as failures.
func TestWrongOutputFailsTheRun(t *testing.T) {
	e := smokeEnv(t)
	e.corruptReference = true
	for _, name := range []string{"lib.treelstm_adt", "http.decoder_stream"} {
		res, err := runWorkload(e, findWorkload(name), false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != res.Attempted || res.FailShare != 1 {
			t.Errorf("%s: %d of %d failed (fail_share %v); a corrupt reference must fail every output", name, res.Failed, res.Attempted, res.FailShare)
		}
	}
}
