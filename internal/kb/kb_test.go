package kb

import (
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/semantic"
)

func newTestCodec(t *testing.T) *semantic.Codec {
	t.Helper()
	corp := corpus.Build()
	return semantic.NewCodec(corp.Domain("it"), semantic.Config{
		EmbedDim: 8, FeatureDim: 4, HiddenDim: 8,
	})
}

func TestKeyString(t *testing.T) {
	tests := []struct {
		key  Key
		want string
	}{
		{GeneralKey("it", RoleEncoder), "it/general/encoder"},
		{GeneralKey("news", RoleDecoder), "news/general/decoder"},
		{UserKey("it", "alice", RoleCodec), "it/alice/codec"},
	}
	for _, tc := range tests {
		if got := tc.key.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestKeyIsGeneral(t *testing.T) {
	if !GeneralKey("it", RoleCodec).IsGeneral() {
		t.Error("general key not recognized")
	}
	if UserKey("it", "bob", RoleCodec).IsGeneral() {
		t.Error("user key misclassified as general")
	}
}

func TestRoleString(t *testing.T) {
	if RoleEncoder.String() != "encoder" || RoleDecoder.String() != "decoder" || RoleCodec.String() != "codec" {
		t.Error("role names wrong")
	}
	if Role(0).String() == "" {
		t.Error("invalid role should still render")
	}
}

func TestModelSizeByRole(t *testing.T) {
	codec := newTestCodec(t)
	enc := &Model{Key: GeneralKey("it", RoleEncoder), Codec: codec}
	dec := &Model{Key: GeneralKey("it", RoleDecoder), Codec: codec}
	full := &Model{Key: GeneralKey("it", RoleCodec), Codec: codec}
	if enc.SizeBytes() != codec.EncoderSizeBytes() {
		t.Error("encoder size mismatch")
	}
	if dec.SizeBytes() != codec.DecoderSizeBytes() {
		t.Error("decoder size mismatch")
	}
	if full.SizeBytes() != codec.SizeBytes() {
		t.Error("codec size mismatch")
	}
	if enc.SizeBytes() >= full.SizeBytes() {
		t.Error("encoder should be smaller than the full codec")
	}
}

func TestRegistryCRUD(t *testing.T) {
	r := NewRegistry()
	codec := newTestCodec(t)
	m := &Model{Key: GeneralKey("it", RoleCodec), Version: 1, Codec: codec}
	if _, ok := r.Get(m.Key); ok {
		t.Fatal("empty registry returned a model")
	}
	r.Put(m)
	got, ok := r.Get(m.Key)
	if !ok || got.Version != 1 {
		t.Fatal("Get after Put failed")
	}
	r.Put(&Model{Key: m.Key, Version: 2, Codec: codec})
	got, _ = r.Get(m.Key)
	if got.Version != 2 {
		t.Fatal("Put did not replace")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	codec := newTestCodec(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := UserKey("it", string(rune('a'+g)), RoleCodec)
				r.Put(&Model{Key: k, Version: i, Codec: codec})
				r.Get(k)
				r.Len()
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
}
