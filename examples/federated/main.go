// Federated: the future-work extension of the paper's §II-D — many users'
// individual-model improvements are aggregated (FedAvg) back into the
// domain-general model, so a brand-new user cold-starts from a model that
// already understands the population's rare vocabulary.
//
// Run with: go run ./examples/federated
package main

import (
	"fmt"
	"log"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/mat"
	"repro/internal/semantic"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("federated: %v", err)
	}
}

func run() error {
	fmt.Println("== FedAvg: folding individual models back into the general model ==")
	corp := corpus.Build()
	d := corp.Domain("medical")
	fmt.Println("pretraining the medical general model...")
	general := semantic.Pretrain(d, corp, semantic.Config{Seed: 5})
	rng := mat.NewRNG(42)

	// Ten donor users, each with a personal vocabulary, contribute local
	// traffic. Their raw text never leaves their edge — only model deltas.
	const donorCount = 10
	donors := make([][]semantic.Example, donorCount)
	for i := range donors {
		idio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
		gen := corpus.NewGenerator(corp, rng.Split())
		var exs []semantic.Example
		for _, m := range gen.Batch(d.Index, 48, idio) {
			exs = append(exs, semantic.ExamplesFromMessage(d, m)...)
		}
		donors[i] = exs
	}
	fmt.Printf("federating %d donors x 4 rounds...\n", donorCount)
	improved, err := experiments.RunFederated(general, donors, experiments.FederatedConfig{
		Rounds: 4, LocalEpochs: 2, Seed: 7,
	})
	if err != nil {
		return err
	}

	// Evaluate cold start for fresh users nobody has seen.
	fmt.Println("\ncold-start evaluation (5 brand-new users with unseen idiolects):")
	var stockSum, fedSum float64
	const probes = 5
	for p := 0; p < probes; p++ {
		idio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
		gen := corpus.NewGenerator(corp, rng.Split())
		var cold []semantic.Example
		for _, m := range gen.Batch(d.Index, 40, idio) {
			cold = append(cold, semantic.ExamplesFromMessage(d, m)...)
		}
		s := general.Evaluate(cold)
		f := improved.Evaluate(cold)
		stockSum += s
		fedSum += f
		fmt.Printf("  user %d: stock %.3f -> fedavg %.3f\n", p+1, s, f)
	}
	fmt.Printf("\nmean cold-start accuracy: %.3f (stock) -> %.3f (fedavg)\n",
		stockSum/probes, fedSum/probes)
	if fedSum <= stockSum {
		return fmt.Errorf("fedavg failed to improve cold start")
	}
	fmt.Println("new users inherit the population's vocabulary without any user's")
	fmt.Println("messages leaving its edge — the FL promise the paper references.")
	return nil
}
