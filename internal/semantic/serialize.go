package semantic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/corpus"
	"repro/internal/nn"
)

// codecMagic identifies a serialized codec stream ("SKB1": semantic
// knowledge base, version 1).
const codecMagic = uint32(0x534b4231)

// Deserialization bounds for untrusted .kbm input. A forged header with
// multi-billion layer widths would otherwise drive NewCodec into
// gigabyte-scale (or panicking) allocations before any shape check runs.
// Real configs sit orders of magnitude below both limits.
const (
	maxCodecDim   = 1 << 10 // layer width (defaults are 8..24)
	maxCodecCount = 1 << 20 // epochs / sentences (metadata only)
)

// errBadCodec reports a malformed serialized codec.
var errBadCodec = errors.New("semantic: malformed serialized codec")

// configBytes is the size of the serialized hyper-parameters: five uint32
// and two float64.
const configBytes = 5*4 + 2*8

// headerBytes is the size of the codec's header in AppendTo's form: magic,
// name length, the name and the hyper-parameters.
func (c *Codec) headerBytes() int { return 4 + 4 + len(c.domain.Name) + configBytes }

// AppendTo appends the codec's .kbm form to dst and returns the extended
// slice: magic, domain name, hyper-parameters and all parameter tensors
// (little-endian throughout). dst grows at most once. The domain's lexicon
// itself is not stored — it is reconstructed from the corpus at load time,
// mirroring how a deployed KB model references its knowledge base by name.
func (c *Codec) AppendTo(dst []byte) ([]byte, error) {
	ps := c.params()
	dst = slices.Grow(dst, c.headerBytes()+int(ps.SizeBytes()))
	dst = binary.LittleEndian.AppendUint32(dst, codecMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.domain.Name)))
	dst = append(dst, c.domain.Name...)
	for _, v := range []int{c.cfg.EmbedDim, c.cfg.FeatureDim, c.cfg.HiddenDim, c.cfg.Epochs, c.cfg.Sentences} {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.cfg.NoiseStd))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.cfg.LR))
	return ps.AppendTo(dst)
}

// ParseCodec decodes a codec AppendTo wrote, which must be all of b, and
// binds it to the matching domain in corp. The parsed tensors become the
// codec's own: they are checked against the domain lexicon's shapes and
// for finiteness, never copied into a freshly initialized codec.
func ParseCodec(b []byte, corp *corpus.Corpus) (*Codec, error) {
	eof := func(what string) error {
		return fmt.Errorf("semantic: read %s: %w", what, io.ErrUnexpectedEOF)
	}
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(b)
		b = b[4:]
		return v
	}
	f64 := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		return v
	}
	if len(b) < 4 {
		return nil, eof("magic")
	}
	if u32() != codecMagic {
		return nil, errBadCodec
	}
	if len(b) < 4 {
		return nil, eof("name length")
	}
	nameLen := u32()
	if nameLen > 256 {
		return nil, errBadCodec
	}
	if len(b) < int(nameLen) {
		return nil, eof("name")
	}
	name := string(b[:nameLen])
	b = b[nameLen:]
	d := corp.Domain(name)
	if d == nil {
		return nil, fmt.Errorf("semantic: unknown domain %q in serialized codec", name)
	}
	if len(b) < configBytes {
		return nil, eof("config")
	}
	var cfg Config
	for _, f := range []struct {
		dst   *int
		limit int
	}{
		{&cfg.EmbedDim, maxCodecDim},
		{&cfg.FeatureDim, maxCodecDim},
		{&cfg.HiddenDim, maxCodecDim},
		{&cfg.Epochs, maxCodecCount},
		{&cfg.Sentences, maxCodecCount},
	} {
		v := u32()
		if v == 0 || v > uint32(f.limit) {
			return nil, errBadCodec
		}
		*f.dst = int(v)
	}
	cfg.NoiseStd, cfg.LR = f64(), f64()
	if math.IsNaN(cfg.NoiseStd) || math.IsInf(cfg.NoiseStd, 0) ||
		math.IsNaN(cfg.LR) || math.IsInf(cfg.LR, 0) {
		return nil, errBadCodec
	}
	params, err := nn.ParseParamSet(b)
	if err != nil {
		return nil, fmt.Errorf("semantic: read params: %w", err)
	}
	if err := params.CheckFinite(); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadCodec, err)
	}
	cfg.Seed = 1 // seeds are not persisted; loaded codecs are already trained
	return newCodecOn(d, cfg.withDefaults(), params)
}

// ReadCodec reads r to its end and parses what it read with ParseCodec.
//
// Deprecated: read the bytes and call ParseCodec.
func ReadCodec(r io.Reader, corp *corpus.Corpus) (*Codec, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("semantic: read codec: %w", err)
	}
	return ParseCodec(b, corp)
}
