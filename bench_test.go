// This file exposes one testing.B benchmark per table and figure of the
// paper's evaluation (§6), wrapping the internal/bench harness. Benchmarks
// run the harness in quick mode so `go test -bench=.` finishes in minutes;
// the full-scale numbers are produced by `go run ./cmd/nimble-bench` and
// recorded in EXPERIMENTS.md. Key quantities (speedups, overheads) are
// attached as custom benchmark metrics.
package nimble_test

import (
	"testing"

	"nimble/internal/bench"
)

func benchCfg() bench.Config { return bench.Config{Quick: true, Seed: 7} }

// BenchmarkTable1LSTM regenerates Table 1: LSTM latency across systems.
func BenchmarkTable1LSTM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Table1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Speedup("PyTorch", "Nimble", "1 layer"), "x-vs-pytorch")
		b.ReportMetric(t.Speedup("TensorFlow", "Nimble", "1 layer"), "x-vs-tf")
		b.ReportMetric(t.Speedup("PyTorch", "Nimble", "2 layers"), "x-vs-pytorch-2layer")
		b.ReportMetric(t.Cells["Nimble"]["1 layer"], "nimble-us/token")
	}
}

// BenchmarkTable2TreeLSTM regenerates Table 2: Tree-LSTM latency.
func BenchmarkTable2TreeLSTM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Speedup("PyTorch", "Nimble", bench.Host), "x-vs-pytorch")
		b.ReportMetric(t.Speedup("TF Fold", "Nimble", bench.Host), "x-vs-fold")
	}
}

// BenchmarkTable3BERT regenerates Table 3: BERT latency.
func BenchmarkTable3BERT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Table3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Speedup("PyTorch", "Nimble", bench.Host), "x-vs-pytorch")
		b.ReportMetric(t.Cells["Nimble"][bench.Host], "nimble-us/token")
	}
}

// BenchmarkTable4Overhead regenerates Table 4: dynamic-handling overhead vs
// a static graph runtime, with the VM profiler's kernel/other split.
func BenchmarkTable4Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Table4(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		overhead := 100 * (float64(r.NimbleLatency) - float64(r.TVMLatency)) / float64(r.TVMLatency)
		b.ReportMetric(overhead, "overhead-%")
		b.ReportMetric(float64(r.OtherLatency.Microseconds()), "others-us")
	}
}

// BenchmarkFigure3SymbolicCodegen regenerates Figure 3: relative latency of
// dispatch/8..1 vs static codegen on the three BERT dense operators.
func BenchmarkFigure3SymbolicCodegen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Series["dispatch/8"][0], "dense1-dispatch8-%")
		b.ReportMetric(100*r.Series["no dispatch"][0], "dense1-nodispatch-%")
		b.ReportMetric(100*r.Series["no dispatch"][1], "dense2-nodispatch-%")
	}
}

// BenchmarkMemoryPlanning regenerates the §6.3 memory-planning study:
// allocation reduction on BERT and CV-model footprints vs the optimal
// static plan.
func BenchmarkMemoryPlanning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.MemPlan(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		reduction := 100 * float64(r.AllocsWithout-r.AllocsWith) / float64(r.AllocsWithout)
		b.ReportMetric(reduction, "alloc-reduction-%")
		worst := 0.0
		for _, f := range r.Footprints {
			if o := f.Overhead(); o > worst {
				worst = o
			}
		}
		b.ReportMetric(worst, "worst-footprint-overhead-%")
	}
}
