package core

import (
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/trace"
)

// BenchmarkUpdateProcess measures one whole §II-D update process as the
// serve path runs it: System.ProcessUpdate on a full 32-message buffer —
// fine-tune, decoder copy, payload size, receiver copy — at the
// default codec size a daemon serves. The buffer is refilled by 32
// untimed transmits per iteration.
func BenchmarkUpdateProcess(b *testing.B) {
	sys, err := NewSystem(Config{
		Selector:        selectFixed,
		PinGeneral:      true,
		BufferThreshold: math.MaxInt,
	})
	if err != nil {
		b.Fatal(err)
	}
	d := sys.Corpus.Domain("it")
	gen := corpus.NewGenerator(sys.Corpus, mat.NewRNG(1))
	msgs := gen.Batch(d.Index, 32, corpus.NewIdiolect(sys.Corpus, mat.NewRNG(2), 0.4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for seq, m := range msgs {
			if _, err := transmitReq(sys, trace.Request{Seq: seq, User: "u1", Cell: -1, Msg: m}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := sys.ProcessUpdate(d.Name, "u1"); err != nil {
			b.Fatal(err)
		}
	}
}
