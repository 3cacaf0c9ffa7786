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
