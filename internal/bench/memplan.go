package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"nimble/internal/baselines"
	"nimble/internal/compiler"
	"nimble/internal/ir"
	"nimble/internal/models"
	"nimble/internal/passes"
	"nimble/internal/vm"
)

// MemPlanResult holds the §6.3 memory-planning study.
type MemPlanResult struct {
	// Allocation reduction on BERT: fresh storage allocations with the
	// planner (static coalescing + runtime pool) on vs off.
	AllocsWithout, AllocsWith int64
	// Latency with/without planning (whole inference; the delta is
	// dominated by allocation work).
	LatencyWithout, LatencyWith time.Duration
	// Footprints per CV model: Nimble's chain-local plan vs the optimal
	// whole-graph static plan.
	Footprints []Footprint
	Notes      []string
}

// Footprint compares one CV model's planned bytes against the static
// optimum.
type Footprint struct {
	Model        string
	NimbleBytes  int
	OptimalBytes int
	NoReuseBytes int
}

// Overhead returns Nimble's footprint excess over the optimum in percent.
func (f Footprint) Overhead() float64 {
	if f.OptimalBytes == 0 {
		return 0
	}
	return 100 * (float64(f.NimbleBytes) - float64(f.OptimalBytes)) / float64(f.OptimalBytes)
}

// Format renders the study.
func (r *MemPlanResult) Format() string {
	var b strings.Builder
	b.WriteString("Memory planning (§6.3)\n")
	reduction := 0.0
	if r.AllocsWithout > 0 {
		reduction = 100 * float64(r.AllocsWithout-r.AllocsWith) / float64(r.AllocsWithout)
	}
	fmt.Fprintf(&b, "buffer allocations: %d -> %d (-%.0f%%; paper: -47%%)\n",
		r.AllocsWithout, r.AllocsWith, reduction)
	fmt.Fprintf(&b, "inference latency:  %.2fms -> %.2fms (alloc-dominated delta; paper: 2.0ms -> 0.5ms alloc latency)\n",
		ms(r.LatencyWithout), ms(r.LatencyWith))
	b.WriteString("memory footprint vs optimal static plan (paper: up to +8%):\n")
	for _, f := range r.Footprints {
		fmt.Fprintf(&b, "  %-12s nimble=%8.2fMB optimal=%8.2fMB no-reuse=%8.2fMB overhead=%+.1f%%\n",
			f.Model, mb(f.NimbleBytes), mb(f.OptimalBytes), mb(f.NoReuseBytes), f.Overhead())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func mb(bytes int) float64 { return float64(bytes) / (1 << 20) }

// MemPlan runs the memory-planning study: BERT allocation counts and latency
// with the planner on/off, and CV-model footprints against the optimal
// static planner.
func MemPlan(cfg Config) (*MemPlanResult, error) {
	res := &MemPlanResult{}

	// Part 1: BERT allocations with and without planning.
	bcfg := models.BERTReduced()
	if cfg.Quick {
		bcfg = models.BERTConfig{Layers: 2, Hidden: 64, Heads: 2, FFN: 128, Vocab: 512, MaxSeq: 32, Seed: 44}
	}
	seq := cfg.samples(128, 24)
	rng := rand.New(rand.NewSource(cfg.Seed + 6))
	runs := cfg.samples(4, 2)

	runCase := func(coalesce, pool bool) (int64, time.Duration, error) {
		m := models.NewBERT(bcfg)
		machine, _, err := compiler.CompileToVM(m.Module, compiler.Options{DisableCoalescing: !coalesce})
		if err != nil {
			return 0, 0, err
		}
		if !pool {
			machine.DisablePool()
		}
		prof := vm.NewProfiler()
		prof.Timing = false
		machine.SetProfiler(prof)
		ids := m.RandomIDs(rng, seq)
		lat := measure(runs, func() {
			if _, err := machine.InvokeTensorsContext(context.Background(), "main", ids); err != nil {
				panic(err)
			}
		}) / time.Duration(runs)
		return prof.AllocFresh / int64(runs), lat, nil
	}
	var err error
	res.AllocsWithout, res.LatencyWithout, err = runCase(false, false)
	if err != nil {
		return nil, err
	}
	res.AllocsWith, res.LatencyWith, err = runCase(true, true)
	if err != nil {
		return nil, err
	}

	// Part 2: CV footprints vs the optimal static plan.
	spatial := 224
	if cfg.Quick {
		spatial = 64
	}
	for _, cv := range models.CVModels(spatial) {
		ivs, nimbleBytes, err := staticIntervals(cv.Module)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cv.Name, err)
		}
		res.Footprints = append(res.Footprints, Footprint{
			Model:        cv.Name,
			NimbleBytes:  nimbleBytes,
			OptimalBytes: baselines.OptimalStaticPlan(ivs),
			NoReuseBytes: baselines.SumSizes(ivs),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("BERT config L=%d H=%d seq=%d; CV models at %dx%d", bcfg.Layers, bcfg.Hidden, seq, spatial, spatial))
	return res, nil
}

// staticIntervals lowers a CV module through the default pipeline and
// extracts (size, live-range) intervals for its static allocations, as
// manifested before coalescing, plus Nimble's coalesced footprint.
func staticIntervals(mod *ir.Module) ([]baselines.Interval, int, error) {
	var ivs []baselines.Interval
	mgr := passes.DefaultPipeline(ir.CPU(0))
	mgr.AfterPass = func(name string, m *ir.Module) error {
		if name != "manifest-alloc" {
			return nil
		}
		fn, err := m.Main()
		if err != nil {
			return err
		}
		ivs = extractIntervals(fn.Body)
		return nil
	}
	if err := mgr.Run(mod); err != nil {
		return nil, 0, err
	}
	return ivs, mgr.Stats.Coalesce.BytesAfter, nil
}

// extractIntervals reads the manifested chain: each static alloc_storage
// opens an interval at its binding index; the kill of a tensor backed by it
// closes the interval (escaping buffers stay live to the end).
func extractIntervals(body ir.Expr) []baselines.Interval {
	type alloc struct {
		size, lo int
		hi       int
	}
	storages := map[*ir.Var]*alloc{}
	bufferStorage := map[*ir.Var]*ir.Var{}
	resultBuffer := map[*ir.Var]*ir.Var{}
	var order []*alloc
	idx := 0
	var walk func(e ir.Expr)
	walk = func(e ir.Expr) {
		for {
			l, ok := e.(*ir.Let)
			if !ok {
				return
			}
			idx++
			if call, ok := l.Value.(*ir.Call); ok {
				if ref, ok := call.Callee.(*ir.OpRef); ok {
					switch ref.Op.Name {
					case ir.OpAllocStorage:
						if size := call.Attrs.Int("size", -1); size >= 0 {
							a := &alloc{size: size, lo: idx, hi: -1}
							storages[l.Bound] = a
							order = append(order, a)
						}
					case ir.OpAllocTensor:
						if sv, ok := call.Args[0].(*ir.Var); ok {
							bufferStorage[l.Bound] = sv
						}
					case ir.OpInvokeMut:
						if bv, ok := call.Args[len(call.Args)-1].(*ir.Var); ok {
							resultBuffer[l.Bound] = bv
						}
					case ir.OpKill:
						if tv, ok := call.Args[0].(*ir.Var); ok {
							buf := resultBuffer[tv]
							if buf == nil {
								buf = tv
							}
							if sv := bufferStorage[buf]; sv != nil {
								if a := storages[sv]; a != nil {
									a.hi = idx
								}
							}
						}
					}
				}
			}
			e = l.Body
		}
	}
	walk(body)
	out := make([]baselines.Interval, 0, len(order))
	for _, a := range order {
		hi := a.hi
		if hi < 0 {
			hi = idx + 1
		}
		out = append(out, baselines.Interval{Size: a.size, Lo: a.lo, Hi: hi})
	}
	return out
}
