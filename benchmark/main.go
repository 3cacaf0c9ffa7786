// Command benchmark is the one instrument for the whole Nimble stack: five
// named workloads, each checked against an independent reference, reporting
// end-to-end metrics (untraced) or per-layer metrics from a ladder of entry
// points (traced). See README.md for the catalogue.
//
//	go run -C benchmark .                       # all five workloads, end to end
//	go run -C benchmark . -trace 1              # all five, layer ladder
//	go run -C benchmark . -workload http.mlp_unary -seed 3 -seconds 10 -trace 0
//	go run -C benchmark . -compare out/a.json out/b.json
//
// With -workload the last line of standard output is the one-object JSON
// summary BENCHMARK.json's contract asks for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "run only this workload (default: all five)")
	seed := flag.Int64("seed", 7, "seed for inputs and arrival schedules")
	seconds := flag.Int("seconds", 10, "measured window per workload, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: layer ladder and per-layer metrics")
	compare := flag.Bool("compare", false, "compare two result files given as arguments instead of running")
	outPath := flag.String("out", "", "result file (default out/result-<e2e|trace>.json)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	e, err := newEnv(ctx, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	list := workloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		list = []workload{*w}
	}

	file := resultFile{Header: e.header(*trace == 1)}
	for i := range list {
		res, err := runWorkload(e, &list[i], *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", list[i].name, err)
			return 1
		}
		printWorkload(os.Stdout, res)
		file.Workloads = append(file.Workloads, res)
	}

	if *outPath == "" {
		kind := "e2e"
		if *trace == 1 {
			kind = "trace"
		}
		*outPath = filepath.Join(e.outDir, "result-"+kind+".json")
	}
	if err := file.write(*outPath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("result file: %s\n", *outPath)

	code := 0
	for _, res := range file.Workloads {
		if res.Failed > 0 {
			code = 1
		}
	}
	if *workloadName != "" {
		if err := printContractLine(os.Stdout, file.Workloads[0], *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	return code
}

// newEnv finds the repository, fixes the load sizing and prepares the
// output directory.
func newEnv(ctx context.Context, seed int64, window time.Duration) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	e := &env{
		ctx:      ctx,
		root:     root,
		benchDir: filepath.Join(root, "benchmark"),
		outDir:   filepath.Join(root, "benchmark", "out"),
		seed:     seed,
		window:   window,
		warm:     500 * time.Millisecond,
		setups:   5,
		log:      os.Stderr,

		cpus:       cpus,
		serverCPUs: cpus,
		genCPUs:    cpus,
		procs:      min(len(cpus), 4),
	}
	if half := len(cpus) / 2; canPin && half >= 1 {
		e.serverCPUs = cpus[:min(half, 4)]
		e.genCPUs = cpus[half : half+min(len(cpus)-half, 4)]
	}
	// Two connections per server worker: enough that an open-loop request
	// rarely waits for a connection at a quarter of capacity, few enough
	// that the server's own queueing stays visible.
	e.conns = 2 * e.workers()
	if err := os.MkdirAll(filepath.Join(e.outDir, "bin"), 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares module nimble. `go run -C benchmark .` and `go test`
// both start in benchmark/, one level below it.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		blob, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(blob), "module nimble\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("benchmark: no go.mod of module nimble above the working directory")
		}
		dir = parent
	}
}

// printWorkload prints every metric by name with its unit, sample count
// and, for the gated ones, its regression bound.
func printWorkload(w io.Writer, res *workloadResult) {
	status := "valid"
	if !res.Valid {
		status = "INVALID: " + res.Invalid
	}
	fmt.Fprintf(w, "\n== %s  [%s]\n", res.Name, status)
	fmt.Fprintf(w, "   attempted %d  succeeded %d  failed %d  fail_share %.4f (bound +0.001 absolute)\n",
		res.Attempted, res.Succeeded, res.Failed, res.FailShare)
	if res.FirstFailure != "" {
		fmt.Fprintf(w, "   first failure: %s\n", res.FirstFailure)
	}
	specs := endToEnd
	if res.Trace {
		specs = perLayer
	}
	for _, spec := range specs {
		m, ok := res.Metrics[spec.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("   %-34s %14.4f %-8s n=%-6d", spec.name, m.Value, m.Unit, m.N)
		if spec.bound > 0 {
			line += fmt.Sprintf(" bound %.2f (%s is better)", spec.bound, spec.better)
		}
		if m.Q3 != 0 {
			line += fmt.Sprintf("  quartiles %.4f / %.4f / %.4f", m.Q1, m.Median, m.Q3)
		}
		fmt.Fprintln(w, line)
	}
	for _, name := range sortedKeys(res.Metrics) {
		if m := res.Metrics[name]; m.Info {
			fmt.Fprintf(w, "   %-34s %14.4f %-8s n=%-6d (information only)\n", name, m.Value, m.Unit, m.N)
		}
	}
}

// printContractLine writes the summary object the benchmark contract reads
// from the last line of standard output: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func printContractLine(w io.Writer, res *workloadResult, trace bool) error {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for _, spec := range specs {
		m, ok := res.Metrics[spec.name]
		if !ok {
			return fmt.Errorf("benchmark: %s did not produce %s", res.Name, spec.name)
		}
		out.Metrics[spec.name] = value{m.Value, spec.unit}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(blob))
	return err
}
