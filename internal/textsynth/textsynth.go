// Package textsynth synthesizes textual attribute values: given a string s
// and a target similarity sim, it produces a semantically plausible string
// s' with f(s, s') ≈ sim (paper §VI).
//
// Two interchangeable backends are provided. TransformerSynthesizer is the
// paper's method — a bank of character-level seq2seq transformers, one per
// similarity bucket, trained (optionally with DP-SGD) on background-domain
// string pairs and decoded with temperature sampling into a candidate set
// that is re-ranked by |sim' − sim|. RuleSynthesizer is a deterministic
// search over background vocabulary and edit operators that targets the
// same contract; it is the default for the large experiment sweeps because
// a CPU-trained micro-transformer needs minutes per bucket (see DESIGN.md
// §1).
package textsynth

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"unicode/utf8"

	"serd/internal/perturb"
	"serd/internal/simfn"
)

// Synthesizer produces a string s' whose similarity with s approximates
// target under the synthesizer's similarity function.
//
// Implementations must be safe for concurrent calls: S2 synthesizes
// candidate entities on several pool workers at once, each call with its
// own r. A call may draw only from r and must keep any scratch it needs
// per call; both backends here do.
type Synthesizer interface {
	// Synthesize returns the synthesized string and its achieved
	// similarity with s.
	Synthesize(s string, target float64, r *rand.Rand) (string, float64)
}

// RuleSynthesizer searches for s' among edit-perturbed variants of s,
// background corpus strings, and token blends of the two, returning the
// candidate whose similarity is closest to the target.
type RuleSynthesizer struct {
	// Sim is the similarity function to target (required).
	Sim simfn.Func
	// Corpus is the background-domain string pool used for low-similarity
	// targets and token blending (required, non-empty).
	Corpus []string
	// Candidates is the number of candidates generated per call
	// (default 10, the paper's candidate-set size).
	Candidates int
	// MaxSteps bounds the edit walk per candidate (default 200).
	MaxSteps int
	// DisableRepair turns off token repair. By default every candidate is
	// run through a vocabulary snap (see repairTokens): edit walks produce
	// out-of-vocabulary tokens which, accumulated over synthesis chains,
	// make entities visibly fake — the transformer backend never emits
	// them because it generates in-vocabulary text by construction.
	DisableRepair bool

	vocab     map[string]bool // lower-cased corpus tokens
	vocabList []vocabToken    // sorted by token, for deterministic nearest-token search
}

// vocabToken is one background-vocabulary token with the facts
// repairTokens bounds its edit distance by.
type vocabToken struct {
	tok   string
	runes int    // utf8.RuneCountInString(tok)
	mask  uint64 // simfn.RuneMask(tok)
}

// NewRuleSynthesizer validates and returns a rule synthesizer.
func NewRuleSynthesizer(sim simfn.Func, corpus []string) (*RuleSynthesizer, error) {
	if sim == nil {
		return nil, errors.New("textsynth: nil similarity function")
	}
	if len(corpus) == 0 {
		return nil, errors.New("textsynth: empty background corpus")
	}
	rs := &RuleSynthesizer{Sim: sim, Corpus: corpus, vocab: make(map[string]bool)}
	for _, s := range corpus {
		for _, tok := range strings.Fields(strings.ToLower(s)) {
			if !rs.vocab[tok] {
				rs.vocab[tok] = true
				rs.vocabList = append(rs.vocabList, vocabToken{tok, utf8.RuneCountInString(tok), simfn.RuneMask(tok)})
			}
		}
	}
	slices.SortFunc(rs.vocabList, func(a, b vocabToken) int { return strings.Compare(a.tok, b.tok) })
	return rs, nil
}

// repairTokens snaps out-of-vocabulary tokens of s to their nearest
// background-vocabulary token (edit distance ≤ 2), keeping in-vocabulary
// and unsnappable tokens as they are. This is the rule backend's stand-in
// for the transformer's implicit language model: it keeps synthesized text
// lexically in-domain so entities survive the paper's "indistinguishable
// entities" requirement across long synthesis chains.
//
// Tokens split as strings.Fields splits them (perturb.AppendFields), and
// tokens of fewer than three runes are kept. The snap is the first token
// in sorted order at the smallest distance, stopping at distance 1. Only
// d < bestD can change that choice, so a vocabulary token is scored only
// when neither the rune-count gap nor simfn.MaskDistanceBound, both lower
// bounds on the distance, already reaches bestD. When no token snaps, s
// comes back as it is, without an allocation: each token is lower-cased
// into a reused buffer and looked up without a copy. Otherwise the tokens
// rejoin with single spaces.
func (rs *RuleSynthesizer) repairTokens(s string) string {
	if rs.DisableRepair || len(rs.vocab) == 0 {
		return s
	}
	var spans [32]perturb.Span
	var lowerBuf [64]byte
	var out []byte // the repaired value, begun at the first snap
	t := perturb.AppendFields(spans[:0], s)
	for k, f := range t {
		tok := s[f.Start:f.End]
		lower := perturb.AppendLower(lowerBuf[:0], tok)
		snap := ""
		if !rs.vocab[string(lower)] {
			snap = rs.snap(string(lower))
		}
		if snap == "" && out == nil {
			continue
		}
		if out == nil {
			// The first snap: rejoin the tokens before it.
			out = make([]byte, 0, len(s)+8)
			for _, g := range t[:k] {
				out = append(append(out, s[g.Start:g.End]...), ' ')
			}
		} else {
			out = append(out, ' ')
		}
		if snap == "" {
			out = append(out, tok...)
		} else {
			out = append(out, matchCase(tok, snap)...)
		}
	}
	if out == nil {
		return s
	}
	return string(out)
}

// snap returns the vocabulary token repairTokens replaces the
// out-of-vocabulary token lower with, or "" when it keeps it.
func (rs *RuleSynthesizer) snap(lower string) string {
	runes := []rune(lower)
	if len(runes) < 3 {
		return ""
	}
	mask := simfn.RuneMask(lower)
	best, bestD := "", 3
	for _, v := range rs.vocabList {
		if gap := v.runes - len(runes); gap >= bestD || -gap >= bestD ||
			simfn.MaskDistanceBound(mask, v.mask) >= bestD {
			continue
		}
		// Only d < bestD matters, so the search may give up past bestD-1.
		if d := simfn.EditDistanceRunesWithin(runes, v.tok, bestD-1); d < bestD {
			best, bestD = v.tok, d
			if d == 1 {
				break
			}
		}
	}
	return best
}

// matchCase applies the original token's leading-capital pattern to the
// replacement: an ASCII capital first makes an ASCII lower-case first
// letter of repl a capital. repl is a vocabulary token, lower-cased and
// so valid UTF-8.
func matchCase(orig, repl string) string {
	if orig == "" || repl == "" || orig[0] < 'A' || orig[0] > 'Z' || repl[0] < 'a' || repl[0] > 'z' {
		return repl
	}
	return string(repl[0]-('a'-'A')) + repl[1:]
}

// Synthesize implements Synthesizer. Candidates come from three sources —
// an edit walk from s, unrelated corpus strings, and token blends of the
// two — and are ranked by |sim' − target| plus a small realism penalty:
// long edit walks produce visibly mangled strings, so when a corpus string
// or blend lands comparably close to the target it wins.
func (rs *RuleSynthesizer) Synthesize(s string, target float64, r *rand.Rand) (string, float64) {
	cands := rs.candidates()
	maxSteps := rs.MaxSteps
	if maxSteps == 0 {
		maxSteps = 200
	}
	// Every similarity in this search keeps s fixed on one side, so bind s
	// once (q-gram table) and score every candidate and walk step against it.
	sc := simfn.BindScorer(rs.Sim, s)
	var w perturb.Walker
	best, bestSim := s, sc.Start(s)
	bestScore := math.Abs(bestSim - target)
	consider := func(c string, cs, penalty float64) {
		if score := math.Abs(cs-target) + penalty; score < bestScore {
			best, bestSim, bestScore = c, cs, score
		}
	}
	// repaired snaps the tokens of a walk's result c, whose score is cSim,
	// into the background vocabulary (see repairTokens), and scores the
	// result only when the snap changed it.
	repaired := func(c string, cSim float64) (string, float64) {
		if rc := rs.repairTokens(c); rc != c {
			return rc, sc.Start(rc)
		}
		return c, cSim
	}
	// Edit walks stay crisp near the endpoints (few edits for high
	// targets, and low targets are served by corpus strings); the
	// mid-range walk needs many edits and degrades readability.
	walkPenalty := 0.0
	if target < 0.7 {
		walkPenalty = 0.06
	}
	for i := 0; i < cands; i++ {
		switch i % 3 {
		case 0:
			// Walk edits from s toward the target, then snap stray tokens
			// back into the background vocabulary.
			c, cSim := repaired(w.Walk(s, target, 0.02, sc, maxSteps, r))
			consider(c, cSim, walkPenalty)
		case 1:
			// An unrelated in-domain string usually lands near zero — the
			// natural candidate for low targets, free for any target.
			c := rs.Corpus[r.Intn(len(rs.Corpus))]
			consider(c, sc.Start(c), 0)
		default:
			// Token blend of s and a donor lands mid-range; polish with a
			// short edit walk from the blend, still scored against s.
			donor := rs.Corpus[r.Intn(len(rs.Corpus))]
			c := blend(s, donor, target, r)
			c, cSim := repaired(w.Walk(c, target, 0.02, sc, maxSteps/4, r))
			consider(c, cSim, 0.02)
		}
	}
	return best, bestSim
}

func (rs *RuleSynthesizer) candidates() int {
	if rs.Candidates <= 0 {
		return 10
	}
	return rs.Candidates
}

// blend keeps each token of s with probability ~target and fills the rest
// from the donor string, producing a string whose token/q-gram overlap with
// s lands near the target. Tokens split as strings.Fields splits them and
// join with single spaces.
func blend(s, donor string, target float64, r *rand.Rand) string {
	var sBuf, dBuf [32]perturb.Span
	st, dt := perturb.AppendFields(sBuf[:0], s), perturb.AppendFields(dBuf[:0], donor)
	if len(st) == 0 {
		return donor
	}
	if len(dt) == 0 {
		return s
	}
	var out strings.Builder
	out.Grow(len(s) + len(donor))
	for k, f := range st {
		if k > 0 {
			out.WriteByte(' ')
		}
		if r.Float64() < target {
			out.WriteString(s[f.Start:f.End])
		} else {
			d := dt[r.Intn(len(dt))]
			out.WriteString(donor[d.Start:d.End])
		}
	}
	return out.String()
}

// Bucket returns the index of the similarity interval containing sim when
// [0, 1] is split into k equal buckets I_1..I_k (paper §VI). Values below
// 0 and NaN fall in the first bucket, values of 1 and above in the last.
func Bucket(sim float64, k int) int {
	if sim >= 1 {
		return k - 1
	}
	if sim < 0 || math.IsNaN(sim) {
		return 0
	}
	return int(sim * float64(k))
}

// BucketCenter returns the midpoint of bucket i of k.
func BucketCenter(i, k int) float64 {
	return (float64(i) + 0.5) / float64(k)
}
