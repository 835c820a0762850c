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
// Tokens of fewer than three runes are kept. The snap is the first token
// in sorted order at the smallest distance, stopping at distance 1. Only
// d < bestD can change that choice, so a vocabulary token is scored only
// when neither the rune-count gap nor simfn.MaskDistanceBound, both lower
// bounds on the distance, already reaches bestD.
func (rs *RuleSynthesizer) repairTokens(s string) string {
	if rs.DisableRepair || len(rs.vocab) == 0 {
		return s
	}
	toks := strings.Fields(s)
	changed := false
	for i, tok := range toks {
		lower := strings.ToLower(tok)
		if rs.vocab[lower] {
			continue
		}
		runes := []rune(lower)
		if len(runes) < 3 {
			continue
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
		if best != "" {
			toks[i] = matchCase(tok, best)
			changed = true
		}
	}
	if !changed {
		return s
	}
	return strings.Join(toks, " ")
}

// matchCase applies the original token's leading-capital pattern to the
// replacement.
func matchCase(orig, repl string) string {
	if orig == "" || repl == "" {
		return repl
	}
	r := []rune(orig)[0]
	if r >= 'A' && r <= 'Z' {
		out := []rune(repl)
		if out[0] >= 'a' && out[0] <= 'z' {
			out[0] = out[0] - 'a' + 'A'
		}
		return string(out)
	}
	return repl
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
	// Every similarity in this search keeps s fixed on one side, so prep s
	// once (q-gram/token set extraction) and reuse it for every candidate.
	simS, same := simfn.Bind(rs.Sim, s), simfn.Equivalence(rs.Sim)
	best, bestSim := s, simS(s)
	bestScore := math.Abs(bestSim - target)
	consider := func(c string, penalty float64) {
		cs := simS(c)
		if score := math.Abs(cs-target) + penalty; score < bestScore {
			best, bestSim, bestScore = c, cs, score
		}
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
			c, _ := perturb.TowardSimilarity(s, target, 0.02, simS, same, maxSteps, r)
			consider(rs.repairTokens(c), walkPenalty)
		case 1:
			// An unrelated in-domain string usually lands near zero — the
			// natural candidate for low targets, free for any target.
			consider(rs.Corpus[r.Intn(len(rs.Corpus))], 0)
		default:
			// Token blend of s and a donor lands mid-range; polish with a
			// short edit walk from the blend, still scored against s.
			donor := rs.Corpus[r.Intn(len(rs.Corpus))]
			c := blend(s, donor, target, r)
			c, _ = perturb.TowardSimilarity(c, target, 0.02, simS, same, maxSteps/4, r)
			consider(rs.repairTokens(c), 0.02)
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
// s lands near the target.
func blend(s, donor string, target float64, r *rand.Rand) string {
	st := strings.Fields(s)
	dt := strings.Fields(donor)
	if len(st) == 0 {
		return donor
	}
	if len(dt) == 0 {
		return s
	}
	out := make([]string, 0, len(st))
	for _, tok := range st {
		if r.Float64() < target {
			out = append(out, tok)
		} else {
			out = append(out, dt[r.Intn(len(dt))])
		}
	}
	return strings.Join(out, " ")
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
