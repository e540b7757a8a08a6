package semantic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

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

// WriteTo serializes the codec: magic, domain name, hyper-parameters and
// all parameter tensors. The domain's lexicon itself is not stored — it is
// reconstructed from the corpus at load time, mirroring how a deployed KB
// model references its knowledge base by name.
func (c *Codec) WriteTo(w io.Writer) (int64, error) {
	var written int64
	var scratch [8]byte
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		n, err := w.Write(scratch[:4])
		written += int64(n)
		return err
	}
	writeF64 := func(v float64) error {
		binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(v))
		n, err := w.Write(scratch[:8])
		written += int64(n)
		return err
	}
	if err := writeU32(codecMagic); err != nil {
		return written, fmt.Errorf("semantic: write magic: %w", err)
	}
	name := c.domain.Name
	if err := writeU32(uint32(len(name))); err != nil {
		return written, fmt.Errorf("semantic: write name length: %w", err)
	}
	n, err := io.WriteString(w, name)
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("semantic: write name: %w", err)
	}
	for _, v := range []uint32{
		uint32(c.cfg.EmbedDim), uint32(c.cfg.FeatureDim), uint32(c.cfg.HiddenDim),
		uint32(c.cfg.Epochs), uint32(c.cfg.Sentences),
	} {
		if err := writeU32(v); err != nil {
			return written, fmt.Errorf("semantic: write config: %w", err)
		}
	}
	if err := writeF64(c.cfg.NoiseStd); err != nil {
		return written, fmt.Errorf("semantic: write config: %w", err)
	}
	if err := writeF64(c.cfg.LR); err != nil {
		return written, fmt.Errorf("semantic: write config: %w", err)
	}
	m, err := c.WriteParamsTo(w)
	written += m
	if err != nil {
		return written, fmt.Errorf("semantic: write params: %w", err)
	}
	return written, nil
}

// ReadCodec deserializes a codec written by WriteTo, binding it to the
// matching domain in corp. It validates shapes against the domain lexicon.
func ReadCodec(r io.Reader, corp *corpus.Corpus) (*Codec, error) {
	var scratch [8]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(r, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	readF64 := func() (float64, error) {
		if _, err := io.ReadFull(r, scratch[:8]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(scratch[:8])), nil
	}
	magic, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("semantic: read magic: %w", err)
	}
	if magic != codecMagic {
		return nil, errBadCodec
	}
	nameLen, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("semantic: read name length: %w", err)
	}
	if nameLen > 256 {
		return nil, errBadCodec
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(r, nameBuf); err != nil {
		return nil, fmt.Errorf("semantic: read name: %w", err)
	}
	d := corp.Domain(string(nameBuf))
	if d == nil {
		return nil, fmt.Errorf("semantic: unknown domain %q in serialized codec", nameBuf)
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
		v, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("semantic: read config: %w", err)
		}
		if v == 0 || v > uint32(f.limit) {
			return nil, errBadCodec
		}
		*f.dst = int(v)
	}
	if cfg.NoiseStd, err = readF64(); err != nil {
		return nil, fmt.Errorf("semantic: read config: %w", err)
	}
	if cfg.LR, err = readF64(); err != nil {
		return nil, fmt.Errorf("semantic: read config: %w", err)
	}
	if math.IsNaN(cfg.NoiseStd) || math.IsInf(cfg.NoiseStd, 0) ||
		math.IsNaN(cfg.LR) || math.IsInf(cfg.LR, 0) {
		return nil, errBadCodec
	}
	params, err := nn.ReadParamSet(r)
	if err != nil {
		return nil, fmt.Errorf("semantic: read params: %w", err)
	}
	cfg.Seed = 1 // seeds are not persisted; loaded codecs are already trained
	c := NewCodec(d, cfg)
	target := c.Params()
	if len(target.Params) != len(params.Params) {
		return nil, errBadCodec
	}
	for i, p := range params.Params {
		t := target.Params[i]
		if t.Name != p.Name || t.M.Rows != p.M.Rows || t.M.Cols != p.M.Cols {
			return nil, fmt.Errorf("semantic: tensor %q mismatch against domain %q", p.Name, d.Name)
		}
	}
	if err := params.CheckFinite(); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadCodec, err)
	}
	target.CopyFrom(params)
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
