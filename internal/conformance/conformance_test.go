package conformance

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// TestSeedCorpus is the deterministic differential sweep: several hundred
// random programs through the full compile pipeline versus the eager
// reference. Any divergence prints the offending program trace and its
// generator seed for replay.
func TestSeedCorpus(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	for seed := int64(0); seed < int64(n); seed++ {
		p := Generate(rand.New(rand.NewSource(seed)))
		if err := Check(p); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if err := Check(generateVaried(seed)); err != nil {
			t.Errorf("varied seed %d: %v", seed, err)
		}
	}
}

// generateVaried is the GenerateVaried program a seed replays: vary is
// seeded from the seed's complement.
func generateVaried(seed int64) *Program {
	return GenerateVaried(rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(^seed)))
}

// fingerprint is a program's trace plus a hash of its input and weight
// bits: two programs with one fingerprint compute the same thing.
func fingerprint(p *Program) string {
	h := fnv.New64a()
	add := func(v []float32) {
		for _, x := range v {
			b := math.Float32bits(x)
			h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
		}
	}
	for _, in := range p.inputs {
		add(in.F32())
	}
	for _, n := range p.nodes {
		if n.weight != nil {
			add(n.weight.F32())
		}
	}
	return fmt.Sprintf("%s%016x", p.Describe(), h.Sum64())
}

// TestGenerateReplaysSavedSeed pins the program of the saved fuzz seed
// (testdata/fuzz/FuzzVMConformance), which reproduces the If-alias
// kill/coalescing miscompile: its two dense nodes feed the If. A generator
// change that moved Generate's draws would quietly stop replaying it.
func TestGenerateReplaysSavedSeed(t *testing.T) {
	const want = `program (anyLead=false, 1 inputs):
  n0: input#0 [2 5]
  n1: maximum(n0, n0) [2 5]
  n2: minimum(n0, n1) [2 5]
  n3: dense(n2, w(5, 5)) [2 5]
  n4: dense(n2, w(5, 5)) [2 5]
  n5: if sum(n4) > 0.94365114 then n4 else n3 [2 5]
  n6: slice(n1, axis=1, 3:4) [2 1]
  n7: transpose(n5) [5 2]
  n8: dense(n7, w(2, 6)) [5 6]
  n9: transpose(n5) [5 2]
  n10: concat(n7, n9, axis=0) [10 2]
  out: n10
78152f733dde9228`
	if got := fingerprint(Generate(rand.New(rand.NewSource(-909)))); got != want {
		t.Errorf("seed -909 builds\n%s\nwant\n%s", got, want)
	}
}

// TestGeneratorCoversAllNodeKinds guards against the generator silently
// degenerating (e.g. every draw failing its shape predicate and falling
// back to tanh): across a fixed seed range every node kind must appear.
func TestGeneratorCoversAllNodeKinds(t *testing.T) {
	seen := map[nodeKind]int{}
	anyLead, wide := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		p := Generate(rand.New(rand.NewSource(seed)))
		for _, n := range append(p.nodes, generateVaried(seed).nodes...) {
			seen[n.kind]++
			if n.kind == kindDense && n.weight.Shape()[1] > 16 {
				wide++
			}
		}
		if p.anyLead {
			anyLead++
		}
	}
	for k := kindInput; k <= kindIf; k++ {
		if seen[k] == 0 {
			t.Errorf("node kind %d never generated", k)
		}
	}
	if anyLead == 0 || anyLead == 400 {
		t.Errorf("anyLead split degenerate: %d/400", anyLead)
	}
	if wide == 0 {
		t.Error("no dense weight wider than one 16-column panel")
	}
}

// TestLoopSeedCorpus sweeps loop-carried in-place programs: tail-call loops
// threading state buffers through cache_append (and reading them back via
// attn_cached) against the eager Go-loop reference.
func TestLoopSeedCorpus(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	for seed := int64(0); seed < int64(n); seed++ {
		p := GenerateLoop(rand.New(rand.NewSource(seed)))
		if err := CheckLoop(p); err != nil {
			t.Errorf("loop seed %d: %v", seed, err)
		}
	}
}

// TestLoopGeneratorCoverage guards the loop generator against degenerating:
// the attn read-back and constant-initialized-cache variants must both
// appear across a fixed seed range.
func TestLoopGeneratorCoverage(t *testing.T) {
	attn, constInit, twoCaches := 0, 0, 0
	for seed := int64(0); seed < 200; seed++ {
		p := GenerateLoop(rand.New(rand.NewSource(seed)))
		if p.useAttn {
			attn++
		}
		if p.constInit {
			constInit++
		}
		if p.twoCaches {
			twoCaches++
		}
	}
	if attn == 0 || constInit == 0 || twoCaches == 0 {
		t.Errorf("degenerate loop generator: attn=%d constInit=%d twoCaches=%d of 200", attn, constInit, twoCaches)
	}
}

// FuzzVMConformance is the native fuzz entry: bytes drive the generator
// seed, so the fuzzer explores program space while every counterexample
// minimizes to a single replayable seed. Each seed drives the straight-line
// generator, its dense-varied form and the loop-carried in-place generator.
func FuzzVMConformance(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p := Generate(rand.New(rand.NewSource(seed)))
		if err := Check(p); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := Check(generateVaried(seed)); err != nil {
			t.Fatalf("varied seed %d: %v", seed, err)
		}
		lp := GenerateLoop(rand.New(rand.NewSource(seed)))
		if err := CheckLoop(lp); err != nil {
			t.Fatalf("loop seed %d: %v", seed, err)
		}
	})
}
