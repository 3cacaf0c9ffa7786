// Command nimble-bench regenerates the paper's tables and figures (see
// DESIGN.md §4 for the experiment index). Host-CPU columns are measured;
// ARM/GPU columns come from the platform cost model and print "(sim)".
//
// Serving load (HTTP and in-process, open loop) is measured by the separate
// benchmark module: go run -C benchmark .
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"nimble/bench"
)

func main() {
	exp := flag.String("experiment", "all", "table1 | table2 | table3 | table4 | figure3 | memplan | decode | all")
	quick := flag.Bool("quick", false, "reduced sample counts and model sizes")
	seed := flag.Int64("seed", 7, "sampler seed")
	jsonPath := flag.String("json", "", "directory to write the committed BENCH_core.json and BENCH_decode.json snapshots into")
	flag.Parse()

	cfg := bench.Config{Quick: *quick, Seed: *seed}
	run := func(name string, f func(bench.Config) (fmt.Stringer, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		r, err := f(cfg)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(r)
	}
	run("table1", func(c bench.Config) (fmt.Stringer, error) { return wrap(bench.Table1(c)) })
	run("table2", func(c bench.Config) (fmt.Stringer, error) { return wrap(bench.Table2(c)) })
	run("table3", func(c bench.Config) (fmt.Stringer, error) { return wrap(bench.Table3(c)) })
	run("table4", func(c bench.Config) (fmt.Stringer, error) { return wrapT4(bench.Table4(c)) })
	run("figure3", func(c bench.Config) (fmt.Stringer, error) { return wrapF3(bench.Figure3(c)) })
	run("memplan", func(c bench.Config) (fmt.Stringer, error) { return wrapMP(bench.MemPlan(c)) })
	run("decode", func(c bench.Config) (fmt.Stringer, error) { return wrapDec(bench.Decode(c)) })

	// -json DIR regenerates the committed perf snapshots: BENCH_core.json
	// (per-model host µs/token, quick config) and BENCH_decode.json
	// (streaming decode tokens/s and TTFT).
	if *jsonPath != "" {
		core, err := bench.Core(cfg)
		if err != nil {
			log.Fatalf("core snapshot: %v", err)
		}
		writeSnapshot(filepath.Join(*jsonPath, "BENCH_core.json"), core)
		dec, err := bench.Decode(cfg)
		if err != nil {
			log.Fatalf("decode snapshot: %v", err)
		}
		writeSnapshot(filepath.Join(*jsonPath, "BENCH_decode.json"), dec)
	}
}

func writeSnapshot(path string, v any) {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatalf("snapshot %s: %v", path, err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	log.Printf("wrote %s", path)
}

type str string

func (s str) String() string { return string(s) }

func wrap(t *bench.Table, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return str(t.Format()), nil
}
func wrapT4(t *bench.Table4Result, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return str(t.Format()), nil
}
func wrapF3(t *bench.Figure3Result, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return str(t.Format()), nil
}
func wrapMP(t *bench.MemPlanResult, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return str(t.Format()), nil
}
func wrapDec(t *bench.DecodeResult, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return str(t.Format()), nil
}
