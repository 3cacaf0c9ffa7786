// Package data provides seeded synthetic stand-ins for the paper's
// datasets. The experiments use MRPC only as a source of variable sentence
// lengths and SST only as a source of parse-tree shapes, so the samplers
// reproduce those distributions rather than the text itself: no corpus
// ships with the repository.
package data

import (
	"math"
	"math/rand"
)

// MRPCSampler draws sentence lengths following the Microsoft Research
// Paraphrase Corpus profile: mean ≈ 26 tokens with a long tail, clipped to
// [MinLen, MaxLen].
type MRPCSampler struct {
	rng    *rand.Rand
	Mean   float64
	Std    float64
	MinLen int
	MaxLen int
}

// NewMRPC creates the sampler with the corpus-matched defaults and a cap of
// 128 tokens (the sequence length the paper's BERT experiments use).
func NewMRPC(seed int64) *MRPCSampler {
	return &MRPCSampler{
		rng:  rand.New(rand.NewSource(seed)),
		Mean: 26, Std: 11, MinLen: 5, MaxLen: 128,
	}
}

// Length draws one sentence length.
func (s *MRPCSampler) Length() int {
	v := s.rng.NormFloat64()*s.Std + s.Mean
	n := int(math.Round(v))
	if n < s.MinLen {
		n = s.MinLen
	}
	if n > s.MaxLen {
		n = s.MaxLen
	}
	return n
}

// Lengths draws n lengths.
func (s *MRPCSampler) Lengths(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s.Length()
	}
	return out
}

// SSTSampler draws sentence sizes following the Stanford Sentiment Treebank
// profile (mean ≈ 19 words); a binary parse over n words has 2n-1 nodes.
type SSTSampler struct {
	rng    *rand.Rand
	Mean   float64
	Std    float64
	MinLen int
	MaxLen int
}

// NewSST creates the sampler with treebank-matched defaults.
func NewSST(seed int64) *SSTSampler {
	return &SSTSampler{
		rng:  rand.New(rand.NewSource(seed)),
		Mean: 19, Std: 9, MinLen: 2, MaxLen: 52,
	}
}

// Words draws the number of words (leaves) of one sentence.
func (s *SSTSampler) Words() int {
	v := s.rng.NormFloat64()*s.Std + s.Mean
	n := int(math.Round(v))
	if n < s.MinLen {
		n = s.MinLen
	}
	if n > s.MaxLen {
		n = s.MaxLen
	}
	return n
}

// Sentences draws n sentence sizes.
func (s *SSTSampler) Sentences(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s.Words()
	}
	return out
}

// Rng exposes the sampler's generator so callers can draw the tree
// topology and token content from the same seeded stream.
func (s *SSTSampler) Rng() *rand.Rand { return s.rng }

// MeanOf computes the average of sampled lengths, used by harness
// sanity checks and per-token normalization.
func MeanOf(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
