// Package metrics provides the small statistics and table-rendering
// utilities shared by the daemon's stats and the experiments: percentiles,
// latency histograms and fixed-width experiment tables.
package metrics

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Percentile returns the p-th percentile (0-100) of values using linear
// interpolation; it copies and sorts internally. It returns 0 for empty
// input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Durations accumulates latency observations for percentile reporting.
type Durations struct {
	ds []time.Duration
}

// Add records one duration.
func (d *Durations) Add(v time.Duration) { d.ds = append(d.ds, v) }

// P returns the p-th percentile duration.
func (d *Durations) P(p float64) time.Duration {
	vals := make([]float64, len(d.ds))
	for i, v := range d.ds {
		vals[i] = float64(v)
	}
	return time.Duration(Percentile(vals, p))
}

// Mean returns the mean duration (0 when empty).
func (d *Durations) Mean() time.Duration {
	if len(d.ds) == 0 {
		return 0
	}
	var total time.Duration
	for _, v := range d.ds {
		total += v
	}
	return total / time.Duration(len(d.ds))
}

// F formats a float with the given number of decimals.
func F(v float64, decimals int) string {
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// Table renders experiment results as a fixed-width text table. The zero
// value is unusable; set Title and Header via NewTable.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.title != "" {
		sb.WriteString(t.title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("-+-")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}
