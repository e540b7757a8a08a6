package experiments

import (
	"reflect"
	"testing"

	"repro/internal/mat"
)

// TestTrialFanOutDeterminism asserts the parallelized runners produce
// results identical to serial execution: per-trial RNGs are split before
// the fan-out, so worker count must never change a table.
func TestTrialFanOutDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping fan-out determinism sweep in -short")
	}
	env := Environment()
	prev := mat.Parallelism()
	defer mat.SetParallelism(prev)

	e1opts := E1Options{SNRs: []float64{0, 6, 12}, MessagesPerDomain: 20, Domains: []string{"it"}}
	e2opts := E2Options{Capacities: []int{1, 4}, Policies: []string{"lru", "lfu"}, Requests: 400}
	e5opts := E5Options{Selectors: []string{"oracle", "naivebayes"}, Messages: 150, Users: 2}

	mat.SetParallelism(1)
	e1s, err := RunE1(env, e1opts)
	if err != nil {
		t.Fatal(err)
	}
	e2s, err := RunE2(env, e2opts)
	if err != nil {
		t.Fatal(err)
	}
	e5s, err := RunE5(env, e5opts)
	if err != nil {
		t.Fatal(err)
	}

	mat.SetParallelism(4)
	e1p, err := RunE1(env, e1opts)
	if err != nil {
		t.Fatal(err)
	}
	e2p, err := RunE2(env, e2opts)
	if err != nil {
		t.Fatal(err)
	}
	e5p, err := RunE5(env, e5opts)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(e1s, e1p) {
		t.Errorf("E1 results differ between 1 and 4 workers:\n%+v\n%+v", e1s.Points, e1p.Points)
	}
	if !reflect.DeepEqual(e2s, e2p) {
		t.Errorf("E2 results differ between 1 and 4 workers:\n%+v\n%+v", e2s.Cells, e2p.Cells)
	}
	if !reflect.DeepEqual(e5s, e5p) {
		t.Errorf("E5 results differ between 1 and 4 workers:\n%+v\n%+v", e5s.Rows, e5p.Rows)
	}
}
