// Selection: watch the §III-A model-selection policies compete live on an
// ambiguous message stream with drifting topics. Prints rolling selection
// accuracy per policy so the context and reinforcement-learning advantage
// is visible as it develops.
//
// Run with: go run ./examples/selection
package main

import (
	"fmt"
	"log"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/mat"
	"repro/internal/selection"
	"repro/internal/trace"
)

func main() {
	fmt.Println("== model selection on ambiguous traffic (short messages, topic runs) ==")
	corp := corpus.Build()
	fmt.Println("training the naive Bayes evidence model...")
	nb := selection.TrainNaiveBayes(corp, 150, 5)
	n := len(corp.Domains)

	factories := map[string]func() selection.Selector{
		"static":     func() selection.Selector { return &experiments.Static{} },
		"naivebayes": func() selection.Selector { return nb },
		"sticky":     func() selection.Selector { return selection.NewSticky(nb, 0) },
		"qlearn": func() selection.Selector {
			return experiments.NewQLearn(nb, n, mat.NewRNG(3))
		},
		"ucb": func() selection.Selector { return experiments.NewUCB(nb, n) },
	}
	order := []string{"static", "naivebayes", "sticky", "qlearn", "ucb"}

	w := trace.Generate(corp, trace.Config{
		Users: 4, Messages: 4000,
		MinLen: 3, MaxLen: 6, FuncProb: 0.55,
		MeanRunLength: 12, Seed: 17,
	})
	fmt.Printf("streaming %d messages from %d users\n\n", len(w.Requests), len(w.Users))

	// One selector per (policy, user): conversation context must not leak
	// across interleaved user streams.
	perUser := map[string]map[string]selection.Selector{}
	correct := map[string]int{}
	window := map[string]int{}
	for _, name := range order {
		perUser[name] = map[string]selection.Selector{}
	}

	const reportEvery = 800
	fmt.Printf("%-10s", "msgs")
	for _, name := range order {
		fmt.Printf(" %12s", name)
	}
	fmt.Println()
	for i, r := range w.Requests {
		for _, name := range order {
			sel, ok := perUser[name][r.User]
			if !ok {
				sel = factories[name]()
				perUser[name][r.User] = sel
			}
			got := sel.Select(r.Msg.Words)
			if got == r.Msg.DomainIndex {
				correct[name]++
				window[name]++
				sel.Feedback(1)
			} else {
				sel.Feedback(0)
			}
		}
		if (i+1)%reportEvery == 0 {
			fmt.Printf("%-10d", i+1)
			for _, name := range order {
				fmt.Printf(" %11.1f%%", 100*float64(window[name])/float64(reportEvery))
				window[name] = 0
			}
			fmt.Println()
		}
	}

	fmt.Println("\noverall accuracy:")
	for _, name := range order {
		fmt.Printf("  %-12s %.1f%%\n", name, 100*float64(correct[name])/float64(len(w.Requests)))
	}
	if correct["sticky"] <= correct["naivebayes"] {
		log.Fatal("selection example: context-aware policy failed to beat per-message classification")
	}
	fmt.Println("\ncontext-aware and RL policies exploit topic persistence that per-message")
	fmt.Println("classification cannot see — the paper's §III-A research direction.")
}
