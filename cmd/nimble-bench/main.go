// Command nimble-bench regenerates the paper's tables and figures, every
// number measured on the host CPU (EXPERIMENTS.md records full-size runs).
//
// Serving load (HTTP and in-process, open loop) is measured by the separate
// benchmark module: go run -C benchmark .
package main

import (
	"flag"
	"fmt"
	"log"

	"nimble/bench"
)

func main() {
	exp := flag.String("experiment", "all", "table1 | table2 | table3 | table4 | figure3 | memplan | all")
	quick := flag.Bool("quick", false, "reduced sample counts and model sizes")
	seed := flag.Int64("seed", 7, "sampler seed")
	flag.Parse()

	// Every result type renders itself with Format.
	type result = interface{ Format() string }
	cfg := bench.Config{Quick: *quick, Seed: *seed}
	run := func(name string, f func(bench.Config) (result, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		r, err := f(cfg)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(r.Format())
	}
	run("table1", func(c bench.Config) (result, error) { return bench.Table1(c) })
	run("table2", func(c bench.Config) (result, error) { return bench.Table2(c) })
	run("table3", func(c bench.Config) (result, error) { return bench.Table3(c) })
	run("table4", func(c bench.Config) (result, error) { return bench.Table4(c) })
	run("figure3", func(c bench.Config) (result, error) { return bench.Figure3(c) })
	run("memplan", func(c bench.Config) (result, error) { return bench.MemPlan(c) })
}
