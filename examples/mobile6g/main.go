// Mobile6G: user mobility and handover between edges. A user with
// personalized individual models moves from edge A to edge B; the serving
// infrastructure migrates the user's serving state over the backhaul —
// the individual models of both edge sides, the channel-noise sequence and
// the pending update transactions, as an edged mesh member hands a user
// over — so personalization survives the handover instead of being
// relearned from scratch, and the example accounts for the migration cost.
//
// Run with: go run ./examples/mobile6g
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/netsim"
	"repro/internal/semantic"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("mobile6g: %v", err)
	}
}

func run() error {
	fmt.Println("== 6G mobility: individual-model handover between edges ==")
	corp := corpus.Build()
	d := corp.Domain("it")
	fmt.Println("pretraining the general models...")
	generals := semantic.PretrainAll(corp, semantic.Config{Seed: 3})
	mkEdge := func(name string) (*core.System, error) {
		return core.NewSystem(core.Config{
			SenderName:      name,
			Pretrained:      generals,
			BufferThreshold: 24,
			Seed:            11,
		})
	}
	edgeA, err := mkEdge("edge-A")
	if err != nil {
		return err
	}
	edgeB, err := mkEdge("edge-B")
	if err != nil {
		return err
	}

	rng := mat.NewRNG(11)
	idio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
	gen := corpus.NewGenerator(corp, rng.Split())
	// Every phase is scored on one probe batch, so the three mismatches
	// differ only by the model that decodes them.
	var probe []semantic.Example
	for _, m := range gen.Batch(d.Index, 40, idio) {
		probe = append(probe, semantic.ExamplesFromMessage(d, m)...)
	}
	mismatchAt := func(sys *core.System, label string) (float64, error) {
		acq, err := sys.Sender.AcquireCodec(d.Name, "u1")
		if err != nil {
			return 0, err
		}
		mismatch := 1 - acq.Model.Codec.Evaluate(probe)
		fmt.Printf("  %-28s mismatch %.3f\n", label, mismatch)
		return mismatch, nil
	}

	// Phase 1: the user lives on edge A and personalizes: every 24
	// messages in a domain fire an update of the user's individual model.
	fmt.Println("\nphase 1: user attached to edge-A, personalizing...")
	before, err := mismatchAt(edgeA, "general model on edge-A:")
	if err != nil {
		return err
	}
	const messages = 4*24 + 5
	updates := 0
	for i := 0; i < messages; i++ {
		res, err := edgeA.TransmitText("u1", gen.Message(d.Index, idio).Words)
		if err != nil {
			return err
		}
		if res.UpdateErr != nil {
			return res.UpdateErr
		}
		if res.UpdateFired {
			updates++
		}
	}
	after, err := mismatchAt(edgeA, "personalized on edge-A:")
	if err != nil {
		return err
	}
	fmt.Printf("  %d messages, %d update rounds, personalization gain: %.3f\n", messages, updates, before-after)

	// Phase 2: handover. Export the user's serving state on edge A, ship it
	// over the backhaul, import it on edge B, and drop it on edge A.
	fmt.Println("\nphase 2: user moves; handover edge-A -> edge-B")
	exp, err := edgeA.ExportUserForHandover("u1")
	if err != nil {
		return err
	}
	pending := 0
	for _, b := range exp.Buffers {
		pending += len(b.Txs)
	}
	backhaul := netsim.Link{Latency: 15 * time.Millisecond, BandwidthBps: 500e6}
	transfer := backhaul.TransferTime(exp.SenderBytes())
	fmt.Printf("  migrating %d sender + %d receiver individual models, noise sequence %d, %d pending transactions\n",
		len(exp.Sender), len(exp.Receiver), exp.NoiseSeq, pending)
	fmt.Printf("  %d bytes of sender-side models: %.2f ms over backhaul\n",
		exp.SenderBytes(), float64(transfer)/float64(time.Millisecond))
	if err := edgeB.ImportUserFromHandover(exp); err != nil {
		return err
	}
	edgeA.DropUserAfterHandover(exp)

	// Phase 3: verify personalization survived the move. A handover moves
	// the models bit for bit, so edge B must score exactly what edge A did.
	fmt.Println("\nphase 3: user attached to edge-B")
	afterMove, err := mismatchAt(edgeB, "migrated model on edge-B:")
	if err != nil {
		return err
	}
	if afterMove != after {
		return fmt.Errorf("handover changed the personalized model: mismatch %.6f on edge-A, %.6f on edge-B", after, afterMove)
	}
	fmt.Printf("\nhandover verdict: migrated mismatch %.3f, equal to edge-A's, vs %.3f if restarting from the general model\n",
		afterMove, before)
	fmt.Printf("the %.2f ms migration preserved %d update rounds of personalization\n",
		float64(transfer)/float64(time.Millisecond), updates)
	return nil
}
