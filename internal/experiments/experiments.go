// Package experiments implements the reproduction harness: one runner per
// experiment (E1-E7, E9-E11 and the ablations; README "What is
// reproduced" maps each to the paper claim it checks), each producing the
// tables the registry in registry.go prints. Runners are deterministic
// given their Options; cmd/sembench renders the registry and
// TestTablesGolden pins its output byte for byte.
package experiments

import (
	"sync"

	"repro/internal/channel"
	"repro/internal/corpus"
	"repro/internal/fl"
	"repro/internal/mat"
	"repro/internal/semantic"
)

// Env is the shared expensive state (pretrained general codecs, trained
// Huffman coder) reused across experiments within one process.
type Env struct {
	Corpus   *corpus.Corpus
	Generals []*semantic.Codec
	huff     *huffman
}

var (
	envOnce sync.Once
	envInst *Env
)

// Environment returns the lazily built shared environment. The build is
// deterministic: default codec config, seed 1.
func Environment() *Env {
	envOnce.Do(func() {
		corp := corpus.Build()
		generals := semantic.PretrainAll(corp, semantic.Config{})
		gen := corpus.NewGenerator(corp, mat.NewRNG(1))
		samples := make([]string, 0, 8*120)
		for di := range corp.Domains {
			for _, m := range gen.Batch(di, 120, nil) {
				samples = append(samples, m.Text())
			}
		}
		envInst = &Env{
			Corpus:   corp,
			Generals: generals,
			huff:     trainHuffman(samples),
		}
	})
	return envInst
}

// transport carries a flat feature buffer across the physical layer: the
// digital channel.FeatureLink or the ablation's analogLink.
type transport interface {
	SendFlatScratch(ts *channel.TxScratch, dst, flat []float64) channel.LinkStats
}

// roundTrip carries one message from enc to dec on the serve path's three
// scratch calls — EncodeWordsInto, SendFlatScratch, DecodeFeaturesInto —
// and returns dec's concepts with the link's accounting. A nil link hands
// dec the clean features: with enc == dec that is the §II-C decoder copy.
// The concepts are backed by sc, which is reset here: consume them before
// the next call.
func roundTrip(sc *mat.Scratch, ts *channel.TxScratch, enc, dec *semantic.Codec, link transport, words []string) ([]int, channel.LinkStats) {
	sc.Reset()
	feats := enc.EncodeWordsInto(sc, words)
	var stats channel.LinkStats
	if link != nil {
		rx := sc.Mat(feats.Rows, feats.Cols)
		stats = link.SendFlatScratch(ts, rx.Data, feats.Data)
		feats = rx
	}
	decoded := sc.Ints(feats.Rows)
	dec.DecodeFeaturesInto(sc, feats, decoded)
	return decoded, stats
}

// transaction builds msg's update-buffer entry: its surface ids, its true
// concepts, and what dec decodes from enc's clean features — the sender's
// decoder copy when both are one model, the receiver's output otherwise.
func transaction(sc *mat.Scratch, d *corpus.Domain, msg corpus.Message, enc, dec *semantic.Codec) fl.Transaction {
	tx := fl.Transaction{
		SurfaceIDs: make([]int, len(msg.Words)),
		ConceptIDs: msg.ConceptIDs,
	}
	for i, w := range msg.Words {
		tx.SurfaceIDs[i] = d.SurfaceID(w)
	}
	decoded, _ := roundTrip(sc, nil, enc, dec, nil, msg.Words)
	// The buffer keeps Decoded until the next update: off the arena.
	tx.Decoded = append([]int(nil), decoded...)
	return tx
}
