package experiments

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/mat"
)

// TestTablesGolden pins every table the repository reproduces, byte for
// byte: the registry rendered at full size is testdata/all.golden and at
// -quick size testdata/quick.golden. A change that moves a number shows up
// here as a line diff; if the move is intended, regenerate and review:
//
//	go run ./cmd/sembench -exp all > internal/experiments/testdata/all.golden
//	go run ./cmd/sembench -exp all -quick > internal/experiments/testdata/quick.golden
func TestTablesGolden(t *testing.T) {
	env := Environment()
	render := func(t *testing.T, quick bool) string {
		var buf bytes.Buffer
		if err := Render(&buf, env, "all", quick); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	golden := func(t *testing.T, name string) string {
		want, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(want)
	}

	// The quick size runs in every job (-short, -race), once serially and
	// once at the default worker count: no table may depend on scheduling.
	t.Run("quick", func(t *testing.T) {
		prev := mat.Parallelism()
		defer mat.SetParallelism(prev)
		mat.SetParallelism(1)
		serial := render(t, true)
		mat.SetParallelism(prev)
		parallel := render(t, true)
		if d := lineDiff(golden(t, "quick.golden"), serial); d != "" {
			t.Errorf("quick tables differ from testdata/quick.golden (-golden +got):\n%s", d)
		}
		if d := lineDiff(serial, parallel); d != "" {
			t.Errorf("quick tables differ between 1 and %d workers (-serial +parallel):\n%s", prev, d)
		}
	})
	t.Run("all", func(t *testing.T) {
		if testing.Short() {
			t.Skip("full-size reproduction takes about 7 s; run without -short")
		}
		if d := lineDiff(golden(t, "all.golden"), render(t, false)); d != "" {
			t.Errorf("tables differ from testdata/all.golden (-golden +got):\n%s", d)
		}
	})
}

// lineDiff returns a unified diff of two texts by line (two lines of
// context), or "" when they are equal.
func lineDiff(want, got string) string {
	if want == got {
		return ""
	}
	a, b := strings.SplitAfter(want, "\n"), strings.SplitAfter(got, "\n")
	// lcs[i][j] is the length of the longest common subsequence of a[i:]
	// and b[j:].
	lcs := make([][]int, len(a)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	type op struct {
		kind byte // ' ', '-' or '+'
		line string
		ai   int // 1-based line in want (of the next want line, for '+')
		bi   int
	}
	var ops []op
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i < len(a) && j < len(b) && a[i] == b[j]:
			ops = append(ops, op{' ', a[i], i + 1, j + 1})
			i, j = i+1, j+1
		case j == len(b) || (i < len(a) && lcs[i+1][j] >= lcs[i][j+1]):
			ops = append(ops, op{'-', a[i], i + 1, j + 1})
			i++
		default:
			ops = append(ops, op{'+', b[j], i + 1, j + 1})
			j++
		}
	}
	const context = 2
	var sb strings.Builder
	for k := 0; k < len(ops); {
		if ops[k].kind == ' ' {
			k++
			continue
		}
		// A hunk runs from context lines before this change to context
		// lines after the last change that is within reach.
		start, end := max(k-context, 0), k
		for n := k; n < len(ops) && n <= end+context; n++ {
			if ops[n].kind != ' ' {
				end = n
			}
		}
		end = min(end+context, len(ops)-1)
		fmt.Fprintf(&sb, "@@ -%d +%d @@\n", ops[start].ai, ops[start].bi)
		for _, o := range ops[start : end+1] {
			sb.WriteByte(o.kind)
			sb.WriteString(strings.TrimSuffix(o.line, "\n"))
			sb.WriteByte('\n')
		}
		k = end + 1
	}
	return sb.String()
}
