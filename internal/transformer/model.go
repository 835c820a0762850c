package transformer

import (
	"fmt"
	"math"
	"math/rand"

	"serd/internal/detrand"
	"serd/internal/nn"
	"serd/internal/telemetry"
)

// Config describes a model. The paper's configuration is d=256, 8 heads,
// 3 encoder and 3 decoder layers; the defaults here are scaled for CPU
// training (see DESIGN.md §1) — same architecture, smaller width.
type Config struct {
	Vocab     *Vocab
	DModel    int     // default 32; must be divisible by Heads
	Heads     int     // default 4
	EncLayers int     // default 2
	DecLayers int     // default 2
	FFDim     int     // default 4*DModel
	MaxLen    int     // maximum sequence length incl. BOS/EOS, default 96
	Dropout   float64 // default 0.1
}

func (c Config) withDefaults() Config {
	if c.DModel == 0 {
		c.DModel = 32
	}
	if c.Heads == 0 {
		c.Heads = 4
	}
	if c.EncLayers == 0 {
		c.EncLayers = 2
	}
	if c.DecLayers == 0 {
		c.DecLayers = 2
	}
	if c.FFDim == 0 {
		c.FFDim = 4 * c.DModel
	}
	if c.MaxLen == 0 {
		c.MaxLen = 96
	}
	if c.Dropout == 0 {
		c.Dropout = 0.1
	}
	return c
}

// mha is one multi-head attention block: per-head Q/K/V projections plus an
// output projection.
type mha struct {
	wq, wk, wv []*nn.Tensor // heads × (d × dk)
	wo         *nn.Tensor   // d × d
	dk         int
}

func newMHA(d, heads int, r *rand.Rand) *mha {
	dk := d / heads
	m := &mha{dk: dk, wo: nn.NewParam(d, d).XavierInit(r)}
	for h := 0; h < heads; h++ {
		m.wq = append(m.wq, nn.NewParam(d, dk).XavierInit(r))
		m.wk = append(m.wk, nn.NewParam(d, dk).XavierInit(r))
		m.wv = append(m.wv, nn.NewParam(d, dk).XavierInit(r))
	}
	return m
}

func (m *mha) params() []*nn.Tensor {
	out := []*nn.Tensor{m.wo}
	out = append(out, m.wq...)
	out = append(out, m.wk...)
	out = append(out, m.wv...)
	return out
}

// forward computes attention of queries q over keys/values kv. mask may be
// nil or a (qRows × kvRows) constant tensor added to the score matrix
// (−1e9 entries disable attention, the causal mask of decoder self-attention).
func (m *mha) forward(q, kv, mask *nn.Tensor) *nn.Tensor {
	heads := make([]*nn.Tensor, len(m.wq))
	scale := 1 / math.Sqrt(float64(m.dk))
	for h := range m.wq {
		qh := nn.MatMul(q, m.wq[h])
		kh := nn.MatMul(kv, m.wk[h])
		vh := nn.MatMul(kv, m.wv[h])
		scores := nn.Scale(nn.MatMul(qh, nn.Transpose(kh)), scale)
		if mask != nil {
			scores = nn.Add(scores, mask)
		}
		heads[h] = nn.MatMul(nn.SoftmaxRows(scores), vh)
	}
	return nn.MatMul(nn.ConcatCols(heads...), m.wo)
}

// ffn is the position-wise feed-forward block.
type ffn struct {
	w1, b1, w2, b2 *nn.Tensor
}

func newFFN(d, hidden int, r *rand.Rand) *ffn {
	return &ffn{
		w1: nn.NewParam(d, hidden).XavierInit(r),
		b1: nn.NewParam(1, hidden),
		w2: nn.NewParam(hidden, d).XavierInit(r),
		b2: nn.NewParam(1, d),
	}
}

func (f *ffn) params() []*nn.Tensor { return []*nn.Tensor{f.w1, f.b1, f.w2, f.b2} }

func (f *ffn) forward(x *nn.Tensor) *nn.Tensor {
	h := nn.ReLU(nn.AddRow(nn.MatMul(x, f.w1), f.b1))
	return nn.AddRow(nn.MatMul(h, f.w2), f.b2)
}

// layerNorm is a learnable row layer norm.
type layerNorm struct {
	gain, bias *nn.Tensor
}

func newLayerNorm(d int) *layerNorm {
	ln := &layerNorm{gain: nn.NewParam(1, d), bias: nn.NewParam(1, d)}
	for i := range ln.gain.Data {
		ln.gain.Data[i] = 1
	}
	return ln
}

func (l *layerNorm) params() []*nn.Tensor { return []*nn.Tensor{l.gain, l.bias} }

func (l *layerNorm) forward(x *nn.Tensor) *nn.Tensor {
	return nn.LayerNormRows(x, l.gain, l.bias)
}

type encLayer struct {
	attn     *mha
	ff       *ffn
	ln1, ln2 *layerNorm
}

type decLayer struct {
	self, cross   *mha
	ff            *ffn
	ln1, ln2, ln3 *layerNorm
}

// Model is a character-level encoder-decoder transformer.
type Model struct {
	cfg    Config
	embed  *nn.Tensor // vocab × d, shared by encoder and decoder inputs
	pos    *nn.Tensor // maxLen × d, constant sinusoidal
	enc    []*encLayer
	dec    []*decLayer
	outW   *nn.Tensor // d × vocab
	outB   *nn.Tensor // 1 × vocab
	params []*nn.Tensor
	rand   *rand.Rand
	rsrc   *detrand.Source // counting source behind rand; position is checkpointed
	seed   int64
	train  bool

	// Metrics, when set, receives decoding telemetry: the
	// "transformer.generate.calls" and "transformer.generate.chars"
	// counters. Defaults to a no-op; not serialized by persist.
	Metrics telemetry.Recorder
}

// New builds a model with Xavier-initialized parameters.
func New(cfg Config, seed int64) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.Vocab == nil {
		return nil, fmt.Errorf("transformer: config needs a vocabulary")
	}
	if cfg.DModel%cfg.Heads != 0 {
		return nil, fmt.Errorf("transformer: DModel %d not divisible by Heads %d", cfg.DModel, cfg.Heads)
	}
	src := detrand.New(seed)
	r := rand.New(src)
	m := &Model{
		cfg:     cfg,
		embed:   nn.NewParam(cfg.Vocab.Size(), cfg.DModel).XavierInit(r),
		pos:     sinusoidal(cfg.MaxLen, cfg.DModel),
		outW:    nn.NewParam(cfg.DModel, cfg.Vocab.Size()).XavierInit(r),
		outB:    nn.NewParam(1, cfg.Vocab.Size()),
		rand:    r,
		rsrc:    src,
		seed:    seed,
		Metrics: telemetry.Nop,
	}
	for i := 0; i < cfg.EncLayers; i++ {
		m.enc = append(m.enc, &encLayer{
			attn: newMHA(cfg.DModel, cfg.Heads, r),
			ff:   newFFN(cfg.DModel, cfg.FFDim, r),
			ln1:  newLayerNorm(cfg.DModel),
			ln2:  newLayerNorm(cfg.DModel),
		})
	}
	for i := 0; i < cfg.DecLayers; i++ {
		m.dec = append(m.dec, &decLayer{
			self:  newMHA(cfg.DModel, cfg.Heads, r),
			cross: newMHA(cfg.DModel, cfg.Heads, r),
			ff:    newFFN(cfg.DModel, cfg.FFDim, r),
			ln1:   newLayerNorm(cfg.DModel),
			ln2:   newLayerNorm(cfg.DModel),
			ln3:   newLayerNorm(cfg.DModel),
		})
	}
	m.params = append(m.params, m.embed, m.outW, m.outB)
	for _, l := range m.enc {
		m.params = append(m.params, l.attn.params()...)
		m.params = append(m.params, l.ff.params()...)
		m.params = append(m.params, l.ln1.params()...)
		m.params = append(m.params, l.ln2.params()...)
	}
	for _, l := range m.dec {
		m.params = append(m.params, l.self.params()...)
		m.params = append(m.params, l.cross.params()...)
		m.params = append(m.params, l.ff.params()...)
		m.params = append(m.params, l.ln1.params()...)
		m.params = append(m.params, l.ln2.params()...)
		m.params = append(m.params, l.ln3.params()...)
	}
	return m, nil
}

// Params returns the trainable parameters.
func (m *Model) Params() []*nn.Tensor { return m.params }

// SetTrain toggles dropout.
func (m *Model) SetTrain(train bool) { m.train = train }

// Config returns the (defaulted) configuration.
func (m *Model) Config() Config { return m.cfg }

// RandDraws returns the internal RNG stream position — Xavier init plus
// train-mode dropout draws. State records it so a restored model's dropout
// stream continues exactly where the checkpointed one stopped.
func (m *Model) RandDraws() uint64 { return m.rsrc.Draws() }

// sinusoidal builds the constant positional-encoding table of the
// "Attention is All You Need" paper.
func sinusoidal(maxLen, d int) *nn.Tensor {
	t := nn.NewTensor(maxLen, d)
	for p := 0; p < maxLen; p++ {
		for i := 0; i < d; i++ {
			angle := float64(p) / math.Pow(10000, float64(2*(i/2))/float64(d))
			if i%2 == 0 {
				t.Set(p, i, math.Sin(angle))
			} else {
				t.Set(p, i, math.Cos(angle))
			}
		}
	}
	return t
}

// embedSeq looks up token embeddings scaled by sqrt(d) and adds positions,
// with dropout when train is set.
func (m *Model) embedSeq(ids []int, train bool) *nn.Tensor {
	x := nn.Scale(nn.Embed(m.embed, ids), math.Sqrt(float64(m.cfg.DModel)))
	posRows := make([][]float64, len(ids))
	for i := range ids {
		p := i
		if p >= m.cfg.MaxLen {
			p = m.cfg.MaxLen - 1
		}
		posRows[i] = m.pos.Data[p*m.cfg.DModel : (p+1)*m.cfg.DModel]
	}
	x = nn.Add(x, nn.FromRows(posRows))
	return nn.Dropout(x, m.cfg.Dropout, train, m.rand)
}

// encode runs the encoder stack over source token ids.
func (m *Model) encode(src []int, train bool) *nn.Tensor {
	x := m.embedSeq(src, train)
	for _, l := range m.enc {
		x = l.ln1.forward(nn.Add(x, l.attn.forward(x, x, nil)))
		x = l.ln2.forward(nn.Add(x, l.ff.forward(x)))
	}
	return x
}

// decode runs the decoder stack over target-side ids attending to memory,
// returning logits (len(tgt) × vocab).
func (m *Model) decode(tgt []int, memory *nn.Tensor, train bool) *nn.Tensor {
	y := m.embedSeq(tgt, train)
	mask := causalMask(len(tgt))
	for _, l := range m.dec {
		y = l.ln1.forward(nn.Add(y, l.self.forward(y, y, mask)))
		y = l.ln2.forward(nn.Add(y, l.cross.forward(y, memory, nil)))
		y = l.ln3.forward(nn.Add(y, l.ff.forward(y)))
	}
	return nn.AddRow(nn.MatMul(y, m.outW), m.outB)
}

// causalMask returns the n×n additive mask with −1e9 above the diagonal.
func causalMask(n int) *nn.Tensor {
	t := nn.NewTensor(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t.Set(i, j, -1e9)
		}
	}
	return t
}

// Loss computes the teacher-forced cross-entropy of producing tgt from src
// (one example; minibatching is done by the caller, which is what DP-SGD's
// per-example clipping requires).
func (m *Model) Loss(src, tgt string) *nn.Tensor {
	s := m.truncate(m.cfg.Vocab.Encode(src, true))
	t := m.truncate(m.cfg.Vocab.Encode(tgt, true))
	memory := m.encode(s, m.train)
	// Decoder sees BOS..last-char, predicts char..EOS.
	logits := m.decode(t[:len(t)-1], memory, m.train)
	return nn.CrossEntropyLogits(logits, t[1:])
}

// Generate decodes an output string for src by temperature sampling
// (temperature <= 0 means greedy). The sampling in the decoder is what
// yields multiple candidate strings per input (paper §VI, inference).
//
// Generate always decodes in inference mode, whatever SetTrain says, and
// writes nothing to the model: its forward passes only read the
// parameters, draw from r alone and allocate their own tensors. So
// concurrent calls with distinct r are safe, as long as no training step
// runs at the same time.
func (m *Model) Generate(src string, temperature float64, r *rand.Rand) string {
	s := m.truncate(m.cfg.Vocab.Encode(src, true))
	memory := m.encode(s, false)
	out := []int{BOS}
	for len(out) < m.cfg.MaxLen {
		logits := m.decode(out, memory, false)
		row := logits.Data[(logits.Rows-1)*logits.Cols:]
		next := sampleLogits(row, temperature, r)
		if next == EOS {
			break
		}
		out = append(out, next)
	}
	decoded := m.cfg.Vocab.Decode(out)
	m.Metrics.Add("transformer.generate.calls", 1)
	m.Metrics.Add("transformer.generate.chars", float64(len(decoded)))
	return decoded
}

func (m *Model) truncate(ids []int) []int {
	if len(ids) > m.cfg.MaxLen {
		ids = append(ids[:m.cfg.MaxLen-1:m.cfg.MaxLen-1], EOS)
	}
	return ids
}

func sampleLogits(logits []float64, temperature float64, r *rand.Rand) int {
	if temperature <= 0 {
		best, bestV := 0, math.Inf(-1)
		for i, v := range logits {
			if v > bestV {
				best, bestV = i, v
			}
		}
		return best
	}
	maxV := math.Inf(-1)
	for _, v := range logits {
		if v > maxV {
			maxV = v
		}
	}
	probs := make([]float64, len(logits))
	sum := 0.0
	for i, v := range logits {
		probs[i] = math.Exp((v - maxV) / temperature)
		sum += probs[i]
	}
	u := r.Float64() * sum
	acc := 0.0
	for i, p := range probs {
		acc += p
		if u <= acc {
			return i
		}
	}
	return len(logits) - 1
}
