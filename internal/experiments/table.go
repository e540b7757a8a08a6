package experiments

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// durations accumulates latency observations for percentile reporting.
type durations struct {
	ds []time.Duration
}

// add records one duration.
func (d *durations) add(v time.Duration) { d.ds = append(d.ds, v) }

// percentile returns the p-th percentile duration.
func (d *durations) percentile(p float64) time.Duration {
	vals := make([]float64, len(d.ds))
	for i, v := range d.ds {
		vals[i] = float64(v)
	}
	return time.Duration(metrics.Percentile(vals, p))
}

// mean returns the mean duration (0 when empty).
func (d *durations) mean() time.Duration {
	if len(d.ds) == 0 {
		return 0
	}
	var total time.Duration
	for _, v := range d.ds {
		total += v
	}
	return total / time.Duration(len(d.ds))
}

// fixed formats a float with the given number of decimals.
func fixed(v float64, decimals int) string {
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// table renders experiment results as a fixed-width text table. The zero
// value is unusable; set the title and header via newTable.
type table struct {
	title  string
	header []string
	rows   [][]string
}

// newTable returns a table with the given title and column headers.
func newTable(title string, header ...string) *table {
	return &table{title: title, header: header}
}

// addRow appends a row; short rows are padded with empty cells.
func (t *table) addRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *table) String() string {
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
