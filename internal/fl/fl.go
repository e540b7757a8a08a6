// Package fl implements the paper's update process (§II-C, §II-D): the
// sender edge records communication transactions in per-domain buffers,
// computes semantic mismatch locally using its decoder copy, fine-tunes the
// user-specific individual model once enough data accumulates, and ships
// only the decoder update to the receiver edge — the federated-learning-
// style synchronization step. Both edges of a deployment live in one
// process, so the update travels as a copy of the decoder's tensors; its
// byte count is what a lossless wire encoding of them would weigh.
package fl

import (
	"errors"
	"fmt"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/semantic"
)

// Transaction is one communication recorded in a domain buffer: the
// transmitted surfaces, the KB ground-truth concepts, and what the decoder
// copy produced.
type Transaction struct {
	SurfaceIDs []int
	ConceptIDs []int
	Decoded    []int
}

// Mismatch returns the fraction of positions where the decoder copy
// disagreed with the KB concepts — the paper's semantic mismatch signal.
func (t Transaction) Mismatch() float64 {
	if len(t.ConceptIDs) == 0 {
		return 0
	}
	bad := 0
	for i, want := range t.ConceptIDs {
		if i >= len(t.Decoded) || t.Decoded[i] != want {
			bad++
		}
	}
	return float64(bad) / float64(len(t.ConceptIDs))
}

// Buffer is the per-(user, domain) transaction store b_m of Fig. 1 step 3.
// It is not safe for concurrent use; the edge server serializes access.
type Buffer struct {
	// Domain and User identify the individual model the buffer feeds.
	Domain string
	User   string
	// Threshold is the transaction count that triggers an update.
	Threshold int

	txs []Transaction
}

// NewBuffer returns an empty buffer with the given update threshold.
func NewBuffer(domain, user string, threshold int) *Buffer {
	if threshold <= 0 {
		threshold = 32
	}
	return &Buffer{Domain: domain, User: user, Threshold: threshold}
}

// Add appends a transaction.
func (b *Buffer) Add(tx Transaction) { b.txs = append(b.txs, tx) }

// Len returns the number of buffered transactions.
func (b *Buffer) Len() int { return len(b.txs) }

// Ready reports whether enough data has accumulated to trigger an update.
func (b *Buffer) Ready() bool { return len(b.txs) >= b.Threshold }

// Reset clears the buffer after an update.
func (b *Buffer) Reset() { b.txs = b.txs[:0] }

// Examples flattens the buffered transactions into training pairs.
// Out-of-domain tokens (concept -1, e.g. after a wrong model selection)
// carry no supervision signal and are skipped.
func (b *Buffer) Examples() []semantic.Example {
	out := make([]semantic.Example, 0, 8*len(b.txs))
	for _, tx := range b.txs {
		for i, sid := range tx.SurfaceIDs {
			if tx.ConceptIDs[i] < 0 {
				continue
			}
			out = append(out, semantic.Example{SurfaceID: sid, ConceptID: tx.ConceptIDs[i]})
		}
	}
	return out
}

// Transactions returns a copy of the buffered transactions.
func (b *Buffer) Transactions() []Transaction {
	out := make([]Transaction, len(b.txs))
	copy(out, b.txs)
	return out
}

// UpdateConfig controls one individual-model update.
type UpdateConfig struct {
	// Epochs is the number of fine-tuning passes over the buffer.
	Epochs int
	// Seed drives fine-tuning randomness.
	Seed uint64
}

// Update is a decoder synchronization message from sender to receiver edge.
type Update struct {
	Domain  string
	User    string
	Version int
	// Decoder is a copy of the sender's decoder tensors after the
	// fine-tune: the receiver's decoder becomes it bit for bit.
	Decoder *nn.ParamSet
	// PayloadBytes is the lossless wire cost of Decoder.
	PayloadBytes int
}

// errEmptyBuffer reports an update attempt with no data.
var errEmptyBuffer = errors.New("fl: update with empty buffer")

// RunUpdate executes Fig. 1 steps 3-4 on the sender edge: fine-tune the
// user's individual codec on the buffered transactions and package a copy
// of its decoder for the receiver. RunUpdate leaves the buffer as it is;
// resetting it is the caller's decision (edge.Server.RunUpdate resets it
// after every attempt, failed ones included).
func RunUpdate(codec *semantic.Codec, buf *Buffer, version int, cfg UpdateConfig) (*Update, error) {
	if buf.Len() == 0 {
		return nil, errEmptyBuffer
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	codec.FineTune(buf.Examples(), cfg.Epochs, mat.NewRNG(cfg.Seed))
	dec := codec.DecoderParams().Clone()
	return &Update{
		Domain:       buf.Domain,
		User:         buf.User,
		Version:      version + 1,
		Decoder:      dec,
		PayloadBytes: nn.DenseSizeBytes(dec),
	}, nil
}

// ApplyUpdate overwrites the receiver's copy of the user's individual
// codec's decoder with the received one, so the receiver's decoder is the
// sender's decoder copy whatever model it held before. A decoder whose
// tensors differ from the codec's in count, names or shapes is refused
// before any weight is written.
func ApplyUpdate(codec *semantic.Codec, upd *Update) error {
	dec := codec.DecoderParams()
	if err := dec.CheckSameShape(upd.Decoder); err != nil {
		return fmt.Errorf("fl: apply update: %w", err)
	}
	dec.CopyFrom(upd.Decoder)
	return nil
}
