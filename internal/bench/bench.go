// Package bench is the evaluation harness: one entry point per table and
// figure of the paper's §6, each returning a structured result that prints
// in the paper's row layout. Every number is measured on the host CPU; the
// paper's ARM and Nvidia columns have no counterpart here.
package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"nimble/internal/data"
	"nimble/internal/models"
	"nimble/internal/tensor"
)

// Config bounds the harness's work.
type Config struct {
	// Quick shrinks sample counts and model sizes for CI-speed runs.
	Quick bool
	// Seed drives all samplers.
	Seed int64
}

func (c Config) samples(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// measure runs f `runs` times and returns total wall time.
func measure(runs int, f func()) time.Duration {
	start := time.Now()
	for i := 0; i < runs; i++ {
		f()
	}
	return time.Since(start)
}

// Host names the one measured column of Tables 2 and 3.
const Host = "host CPU"

// Table is a generic result grid of measured µs/token, row → column → value.
type Table struct {
	Title   string
	Columns []string
	Rows    []string
	Cells   map[string]map[string]float64
	Notes   []string
}

func newTable(title string, rows, cols []string) *Table {
	t := &Table{Title: title, Columns: cols, Rows: rows, Cells: map[string]map[string]float64{}}
	for _, r := range rows {
		t.Cells[r] = map[string]float64{}
	}
	return t
}

// Format renders the table.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-14s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%16s", c)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s", r)
		for _, c := range t.Columns {
			fmt.Fprintf(&b, "%16.1f", t.Cells[r][c])
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Speedup returns row a's value over row b's for a column (who-wins factor).
func (t *Table) Speedup(slow, fast, col string) float64 {
	f := t.Cells[fast][col]
	if f == 0 {
		return 0
	}
	return t.Cells[slow][col] / f
}

// lstmInputs draws MRPC-profile sequences shared by Nimble and the
// baseline executors; returns the sequences and total token count.
func lstmInputs(cfg Config, m *models.LSTM, count int) ([][]*tensor.Tensor, int) {
	sampler := data.NewMRPC(cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var seqs [][]*tensor.Tensor
	tokens := 0
	for i := 0; i < count; i++ {
		n := sampler.Length()
		if cfg.Quick && n > 24 {
			n = 24
		}
		seqs = append(seqs, m.RandomSteps(rng, n))
		tokens += n
	}
	return seqs, tokens
}
