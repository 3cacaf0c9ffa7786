// Package bench re-exports Nimble's evaluation harness — one entry point
// per table/figure of the paper's §6 — so `nimble paper` (and any
// external harness) runs it without reaching into internal packages.
// Serving load is measured by the separate benchmark module
// (go run -C benchmark .).
package bench

import ibench "nimble/internal/bench"

type (
	// Config parameterizes the paper-table harness.
	Config = ibench.Config
	// Table and the result types render the measured numbers.
	Table         = ibench.Table
	Table4Result  = ibench.Table4Result
	Figure3Result = ibench.Figure3Result
	MemPlanResult = ibench.MemPlanResult
)

// Table1 regenerates Table 1 (LSTM latency across systems, 1 and 2 layers).
func Table1(c Config) (*Table, error) { return ibench.Table1(c) }

// Table2 regenerates Table 2 (Tree-LSTM latency).
func Table2(c Config) (*Table, error) { return ibench.Table2(c) }

// Table3 regenerates Table 3 (BERT latency).
func Table3(c Config) (*Table, error) { return ibench.Table3(c) }

// Table4 regenerates Table 4 (VM instruction overhead).
func Table4(c Config) (*Table4Result, error) { return ibench.Table4(c) }

// Figure3 regenerates Figure 3 (symbolic dispatch width sweep).
func Figure3(c Config) (*Figure3Result, error) { return ibench.Figure3(c) }

// MemPlan regenerates the memory-planning ablation.
func MemPlan(c Config) (*MemPlanResult, error) { return ibench.MemPlan(c) }
