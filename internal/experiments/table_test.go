package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestDurations(t *testing.T) {
	var d durations
	if d.mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
	d.add(10 * time.Millisecond)
	d.add(20 * time.Millisecond)
	d.add(30 * time.Millisecond)
	if len(d.ds) != 3 {
		t.Fatalf("N = %d", len(d.ds))
	}
	if d.mean() != 20*time.Millisecond {
		t.Fatalf("Mean = %v", d.mean())
	}
	if d.percentile(50) != 20*time.Millisecond {
		t.Fatalf("P50 = %v", d.percentile(50))
	}
	if d.percentile(100) != 30*time.Millisecond {
		t.Fatalf("P100 = %v", d.percentile(100))
	}
}

func TestTableRendering(t *testing.T) {
	tbl := newTable("E1: fidelity vs SNR", "snr", "semantic", "traditional")
	tbl.addRow("-6", "0.81", "0.12")
	tbl.addRow("18", "0.99", "1.00")
	out := tbl.String()
	if !strings.Contains(out, "E1: fidelity vs SNR") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "snr") || !strings.Contains(out, "semantic") {
		t.Fatal("header missing")
	}
	if !strings.Contains(out, "0.81") || !strings.Contains(out, "1.00") {
		t.Fatal("rows missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
	if len(tbl.rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.rows))
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tbl := newTable("", "a", "b", "c")
	tbl.addRow("only")
	out := tbl.String()
	if !strings.Contains(out, "only") {
		t.Fatal("row missing")
	}
}

func TestFixed(t *testing.T) {
	if fixed(1.23456, 2) != "1.23" {
		t.Fatalf("fixed = %q", fixed(1.23456, 2))
	}
	if fixed(2, 0) != "2" {
		t.Fatalf("fixed = %q", fixed(2, 0))
	}
}
