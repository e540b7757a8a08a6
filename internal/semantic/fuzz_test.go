package semantic

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/nn"
)

// FuzzReadCodec feeds arbitrary bytes to the .kbm parser, ParseCodec: it must never
// panic or over-allocate (forged headers once drove NewCodec into
// makeslice panics), and every stream it accepts must validate and
// re-serialize stably.
func FuzzReadCodec(f *testing.F) {
	corp := corpus.Build()
	codec := NewCodec(corp.Domains[0], Config{
		EmbedDim: 6, FeatureDim: 3, HiddenDim: 8, Epochs: 1, Sentences: 50,
	})
	valid, err := codec.AppendTo(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:16])           // truncated after the header
	f.Add(valid[:len(valid)/2]) // truncated mid-tensor
	f.Add([]byte{})
	f.Add([]byte("SKB1 but not really"))
	// A forged header demanding ~4-billion-wide layers: the reader must
	// reject it before allocating, not crash in NewCodec.
	forged := append([]byte{}, valid[:12]...)
	for i := 0; i < 5; i++ {
		forged = binary.LittleEndian.AppendUint32(forged, 0xfffffff0)
	}
	f.Add(forged)
	f.Add(append(valid[:len(valid):len(valid)], 0)) // a trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseCodec(data, corp)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("parser accepted a codec that fails validation: %v", err)
		}
		out, err := c.AppendTo(nil)
		if err != nil {
			t.Fatalf("accepted codec fails to serialize: %v", err)
		}
		if _, err := ParseCodec(out, corp); err != nil {
			t.Fatalf("re-serialized codec fails to parse: %v", err)
		}
	})
}

// FuzzDecodeMemo drives one memo shared by three codecs (two key widths)
// with a fuzzer-chosen program: decode a message of fuzzer-chosen rows,
// flood the table with more distinct rows than it has slots, rewrite a
// codec's weights through a stamping door, switch codec. After every
// decode the oracle is the bare kernel on the same rows.
func FuzzDecodeMemo(f *testing.F) {
	f.Add([]byte{0, 5, 1, 2, 3, 4, 5, 0, 5, 1, 2, 3, 4, 5})       // a message, twice
	f.Add([]byte{0, 3, 9, 9, 9, 2, 7, 0, 3, 9, 9, 9})             // decode, rewrite, decode
	f.Add([]byte{1, 4, 0, 2, 1, 2, 1, 5, 0, 2, 1, 2})             // flood between two decodes
	f.Add([]byte{0, 2, 7, 7, 3, 0, 2, 7, 7, 3, 3, 0, 2, 7, 7})    // same rows under each codec
	f.Add([]byte{0, 6, 250, 251, 252, 253, 254, 255, 2, 1, 1, 9}) // the odd values
	values := []float64{
		math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 3.5,
		-1, -0.7142857142857143, -0.4285714285714286, -0.1428571428571429,
		0.1428571428571428, 0.4285714285714286, 0.7142857142857142, 1,
	}
	base := []*Codec{memoCodec(8, 1), memoCodec(6, 2), memoCodec(8, 3)}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		codecs := make([]*Codec, len(base)) // the program writes to them
		for i, c := range base {
			codecs[i] = c.Clone()
		}
		cur := 0
		m := NewDecodeMemo()
		sc := mat.GetScratch()
		defer mat.PutScratch(sc)
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		check := func(feats *mat.Dense) {
			c := codecs[cur]
			want := make([]int, feats.Rows)
			got := make([]int, feats.Rows)
			sc.Reset()
			c.DecodeFeaturesInto(sc, feats, want)
			m.DecodeFeaturesInto(sc, c, feats, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d %v: %d through the memo, %d directly", i, feats.Row(i), got[i], want[i])
				}
			}
		}
		floods := 0
		for len(prog) > 0 {
			dim := codecs[cur].FeatureDim()
			switch next() % 4 {
			case 0: // a message: each row is one byte expanded over the value table
				n := int(next()%32) + 1
				feats := mat.NewDense(n, dim)
				for i := 0; i < n; i++ {
					b := int(next())
					for j := 0; j < dim; j++ {
						feats.Set(i, j, values[(b+j*(b>>4+1))%len(values)])
					}
				}
				check(feats)
			case 1: // slot pressure: 1.5x the table's slots in distinct rows
				if floods == 2 {
					continue // bounded work per input
				}
				floods++
				rng := mat.NewRNG(uint64(next()) + 1)
				feats := mat.NewDense(3*memoSets*memoWays/2, dim)
				for i := range feats.Data {
					feats.Data[i] = rng.Float64()
				}
				check(feats)
			case 2: // a writer: through the door, then write
				ps := codecs[cur].DecoderParams()
				t := ps.Params[int(next())%len(ps.Params)].M
				t.Data[int(next())%len(t.Data)] += float64(int(next())-128) / 8
			case 3:
				cur = int(next()) % len(codecs)
			}
		}
	})
}

// FuzzSenderTable drives the sender tables of three codecs (two feature
// widths) with a fuzzer-chosen program: read a message of fuzzer-chosen
// surface IDs (in range, negative, past the vocabulary), write an encoder
// or a decoder weight through its stamping door, switch codec. After every
// read the oracle is the per-token kernels on the same IDs, so a table
// built before a write must never be served after it.
func FuzzSenderTable(f *testing.F) {
	f.Add([]byte{0, 5, 1, 2, 3, 4, 5, 0, 5, 1, 2, 3, 4, 5})        // a message, twice
	f.Add([]byte{0, 3, 9, 9, 9, 1, 1, 7, 200, 0, 3, 9, 9, 9})      // read, encoder write, read
	f.Add([]byte{0, 3, 9, 9, 9, 2, 3, 7, 200, 0, 3, 9, 9, 9})      // read, decoder write, read
	f.Add([]byte{0, 2, 7, 7, 3, 1, 0, 2, 7, 7, 3, 2, 0, 2, 7, 7})  // same IDs under each codec
	f.Add([]byte{0, 6, 0, 127, 128, 129, 254, 255, 1, 0, 0, 1, 0}) // the IDs that clamp
	base := []*Codec{memoCodec(8, 1), memoCodec(6, 2), memoCodec(8, 3)}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		codecs := make([]*Codec, len(base)) // the program writes to them
		for i, c := range base {
			codecs[i] = c.Clone()
		}
		cur := 0
		sc := mat.GetScratch()
		defer mat.PutScratch(sc)
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		write := func(ps *nn.ParamSet) {
			m := ps.Params[int(next())%len(ps.Params)].M
			m.Data[int(next())%len(m.Data)] += float64(int(next())-128) / 8
		}
		for len(prog) > 0 {
			c := codecs[cur]
			switch next() % 4 {
			case 0: // a message: bytes 0..127 are IDs (the top of the range is past the vocabulary), 128..255 negative
				ids := make([]int, int(next()%32)+1)
				for i := range ids {
					ids[i] = int(int8(next()))
				}
				if !requireTableMatchesKernels(t, sc, c, ids, "read") {
					t.FailNow()
				}
			case 1: // a writer: through the door to every tensor (the encoder's among them), then write
				write(c.Params())
			case 2: // a decoder-only writer: the feature rows stand, the concept column may not
				write(c.DecoderParams())
			case 3:
				cur = int(next()) % len(codecs)
			}
		}
	})
}
