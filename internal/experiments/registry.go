package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// experiment is one run of the reproduction: the id sembench selects it
// by, and the run at full or -quick size that returns what it prints, in
// order — tables, or a line of text.
type experiment struct {
	id  string
	run func(env *Env, quick bool) ([]any, error)
}

// define binds a runner to its full-size and -quick options and to the
// tables it prints.
func define[O, R any](id string, full, quick O, run func(*Env, O) (R, error), render func(R) []any) experiment {
	return experiment{id: id, run: func(env *Env, q bool) ([]any, error) {
		opts := full
		if q {
			opts = quick
		}
		res, err := run(env, opts)
		if err != nil {
			return nil, err
		}
		return render(res), nil
	}}
}

// registry is the whole reproduction in print order. Zero options are the
// full-size defaults of each runner; an id with two rows prints both.
// testdata/all.golden and testdata/quick.golden are this table rendered,
// byte for byte (TestTablesGolden).
var registry = []experiment{
	define("e1", E1Options{}, E1Options{MessagesPerDomain: 40, Domains: []string{"it"}}, RunE1,
		func(r *E1Result) []any { return []any{r.FigureA(), r.TableA()} }),
	define("e1", E1Options{Rayleigh: true}, E1Options{Rayleigh: true, MessagesPerDomain: 40, Domains: []string{"it"}}, RunE1,
		func(r *E1Result) []any { return []any{r.FigureA()} }),
	define("e2", E2Options{}, E2Options{Requests: 1500}, RunE2,
		func(r *E2Result) []any { return []any{r.FigureB(), r.LatencyTable()} }),
	define("e3", E3Options{}, E3Options{Users: 4, Rounds: 16}, RunE3,
		func(r *E3Result) []any {
			return []any{r.FigureC(), fmt.Sprintf("final mismatch gap (general - individual): %.4f\n", r.FinalGap)}
		}),
	define("e4", E4Options{}, E4Options{Rounds: 8}, RunE4,
		func(r *E4Result) []any { return []any{r.TableB()} }),
	define("e5", E5Options{}, E5Options{Messages: 800}, RunE5,
		func(r *E5Result) []any { return []any{r.FigureD()} }),
	define("e6", E6Options{}, E6Options{Messages: 150}, RunE6,
		func(r *E6Result) []any { return []any{r.TableC()} }),
	define("e7", E7Options{}, E7Options{Updates: 3}, RunE7,
		func(r *E7Result) []any { return []any{r.FigureE()} }),
	define("e9", E9Options{}, E9Options{Donors: 6, Rounds: 3}, RunE9,
		func(r *E9Result) []any { return []any{r.TableE()} }),
	define("e10", E10Options{}, E10Options{Frames: 120}, RunE10,
		func(r *E10Result) []any { return []any{r.TableF()} }),
	define("e11", E11Options{}, E11Options{Requests: 1000, NodeCounts: []int{2}}, RunE11,
		func(r *E11Result) []any { return []any{r.TableG()} }),
	define("ablate", AblationOptions{}, AblationOptions{Messages: 80}, RunAblations,
		func(r *AblationResult) []any {
			var out []any
			for _, t := range r.Tables() {
				out = append(out, t)
			}
			return out
		}),
}

// IDs lists the experiment ids in print order.
func IDs() []string {
	var ids []string
	for _, e := range registry {
		if !slices.Contains(ids, e.id) {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// Render runs the experiment named id — or, for "all", the whole registry
// — and writes what it prints to w, each item followed by a blank line.
func Render(w io.Writer, env *Env, id string, quick bool) error {
	if id != "all" && !slices.Contains(IDs(), id) {
		return fmt.Errorf("unknown experiment %q (want %s or all)", id, strings.Join(IDs(), ", "))
	}
	for _, e := range registry {
		if id != "all" && id != e.id {
			continue
		}
		items, err := e.run(env, quick)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		for _, item := range items {
			if _, err := fmt.Fprintln(w, item); err != nil {
				return err
			}
		}
	}
	return nil
}
