package experiments

import (
	"fmt"
	"math/rand"

	"serd/internal/dataset"
	"serd/internal/generator"
	"serd/internal/matcher"
	"serd/internal/userstudy"
)

// workload materializes a labeled matcher workload with blocking-derived
// hard negatives mixed in (the Magellan labeling regime).
func (s *Suite) workload(er *dataset.ER, salt int64) ([]dataset.LabeledPair, error) {
	cands, err := generator.DefaultBlocker(er.Schema()).Candidates(er.A, er.B)
	if err != nil {
		return nil, err
	}
	return dataset.LabeledPairsMixed(er, s.cfg.NegPerPos, cands, s.Rand(salt)), nil
}

// MatcherKind selects the matcher family of Exp-2/Exp-3.
type MatcherKind string

// The two matcher families of the evaluation.
const (
	Magellan    MatcherKind = "Magellan"    // random forest (Figures 6, 8)
	Deepmatcher MatcherKind = "Deepmatcher" // neural matcher (Figures 7, 9)
)

func (s *Suite) newMatcher(kind MatcherKind) (matcher.Matcher, error) {
	var m matcher.Matcher
	switch kind {
	case Magellan:
		m = &matcher.RandomForest{Trees: 20, Seed: s.cfg.Seed + 11}
	case Deepmatcher:
		m = &matcher.MLP{Seed: s.cfg.Seed + 13, Epochs: 250}
	default:
		return nil, fmt.Errorf("experiments: unknown matcher kind %q", kind)
	}
	return matcher.Instrument(string(kind), m, s.cfg.Metrics), nil
}

// EvalRow is one bar group of Figures 6-9.
type EvalRow struct {
	Dataset string
	Method  Method
	Metrics matcher.Metrics
	// DF1, DPrec, DRec are absolute differences to the Real row of the
	// same dataset (0 for the Real row itself).
	DF1, DPrec, DRec float64
}

// ModelEvaluation reproduces Exp-2 (Figure 6 for Magellan, Figure 7 for
// Deepmatcher): train M_real on the real training split and M_syn on each
// synthesized dataset, then evaluate all of them on the same real test
// split T.
func (s *Suite) ModelEvaluation(kind MatcherKind) ([]EvalRow, error) {
	done := s.track("model_eval." + string(kind))
	var rows []EvalRow
	for _, name := range s.cfg.Datasets {
		g, err := s.Generated(name)
		if err != nil {
			return nil, err
		}
		r := s.Rand(101)
		pairs, err := s.workload(g.ER, 101)
		if err != nil {
			return nil, err
		}
		train, test, err := dataset.Split(pairs, s.cfg.TestFrac, r)
		if err != nil {
			return nil, err
		}
		testX, testY := dataset.Vectors(test)

		mReal, err := s.newMatcher(kind)
		if err != nil {
			return nil, err
		}
		trainX, trainY := dataset.Vectors(train)
		if err := matcher.FitContext(s.ctx(), mReal, trainX, trainY); err != nil {
			return nil, fmt.Errorf("experiments: %s/Real: %w", name, err)
		}
		realMet := matcher.Evaluate(mReal, testX, testY)
		rows = append(rows, EvalRow{Dataset: name, Method: MethodReal, Metrics: realMet})

		for _, method := range SynMethods() {
			syn, err := s.SynER(name, method)
			if err != nil {
				return nil, err
			}
			synPairs, err := s.workload(syn, 103)
			if err != nil {
				return nil, err
			}
			synX, synY := dataset.Vectors(synPairs)
			m, err := s.newMatcher(kind)
			if err != nil {
				return nil, err
			}
			if err := matcher.FitContext(s.ctx(), m, synX, synY); err != nil {
				return nil, fmt.Errorf("experiments: %s/%s: %w", name, method, err)
			}
			met := matcher.Evaluate(m, testX, testY)
			dp, dr, df := matcher.Diff(realMet, met)
			rows = append(rows, EvalRow{Dataset: name, Method: method, Metrics: met, DPrec: dp, DRec: dr, DF1: df})
		}
	}
	done(len(rows))
	return rows, nil
}

// DataEvaluation reproduces Exp-3 (Figure 8 for Magellan, Figure 9 for
// Deepmatcher): train M_real on the real training split, then test it on
// the real test set T_real and on same-size test sets T_syn sampled from
// each synthesized dataset.
func (s *Suite) DataEvaluation(kind MatcherKind) ([]EvalRow, error) {
	done := s.track("data_eval." + string(kind))
	var rows []EvalRow
	for _, name := range s.cfg.Datasets {
		g, err := s.Generated(name)
		if err != nil {
			return nil, err
		}
		r := s.Rand(201)
		pairs, err := s.workload(g.ER, 201)
		if err != nil {
			return nil, err
		}
		train, test, err := dataset.Split(pairs, s.cfg.TestFrac, r)
		if err != nil {
			return nil, err
		}
		mReal, err := s.newMatcher(kind)
		if err != nil {
			return nil, err
		}
		trainX, trainY := dataset.Vectors(train)
		if err := matcher.FitContext(s.ctx(), mReal, trainX, trainY); err != nil {
			return nil, fmt.Errorf("experiments: %s/Real: %w", name, err)
		}
		testX, testY := dataset.Vectors(test)
		realMet := matcher.Evaluate(mReal, testX, testY)
		rows = append(rows, EvalRow{Dataset: name, Method: MethodReal, Metrics: realMet})

		// Count the positives/negatives of T_real so T_syn matches its size
		// and balance.
		posN, negN := 0, 0
		for _, y := range testY {
			if y {
				posN++
			} else {
				negN++
			}
		}
		for _, method := range SynMethods() {
			syn, err := s.SynER(name, method)
			if err != nil {
				return nil, err
			}
			cands, err := generator.DefaultBlocker(syn.Schema()).Candidates(syn.A, syn.B)
			if err != nil {
				return nil, err
			}
			tsyn := sampleTestSet(syn, posN, negN, cands, s.Rand(203))
			synX, synY := dataset.Vectors(tsyn)
			met := matcher.Evaluate(mReal, synX, synY)
			dp, dr, df := matcher.Diff(realMet, met)
			rows = append(rows, EvalRow{Dataset: name, Method: method, Metrics: met, DPrec: dp, DRec: dr, DF1: df})
		}
	}
	done(len(rows))
	return rows, nil
}

// sampleTestSet draws a labeled test set of the requested positive and
// negative sizes from a synthesized dataset, mixing blocking candidates
// into the negatives the same way the real test split does.
func sampleTestSet(er *dataset.ER, posN, negN int, candidates []dataset.Pair, r *rand.Rand) []dataset.LabeledPair {
	s := er.Schema()
	var out []dataset.LabeledPair
	matches := append([]dataset.Pair(nil), er.Matches...)
	r.Shuffle(len(matches), func(i, j int) { matches[i], matches[j] = matches[j], matches[i] })
	if posN > len(matches) {
		posN = len(matches)
	}
	for _, p := range matches[:posN] {
		out = append(out, dataset.LabeledPair{
			Pair:   p,
			Vector: s.SimVector(er.A.Entities[p.A], er.B.Entities[p.B]),
			Match:  true,
		})
	}
	matchSet := er.MatchSet()
	pool := append([]dataset.Pair(nil), candidates...)
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	seen := make(map[dataset.Pair]bool)
	hard := negN / 2
	for _, p := range pool {
		if hard == 0 {
			break
		}
		if matchSet[p] || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, dataset.LabeledPair{
			Pair:   p,
			Vector: s.SimVector(er.A.Entities[p.A], er.B.Entities[p.B]),
			Match:  false,
		})
		hard--
		negN--
	}
	for _, p := range er.NonMatchingPairs(negN, r) {
		if seen[p] {
			continue
		}
		out = append(out, dataset.LabeledPair{
			Pair:   p,
			Vector: s.SimVector(er.A.Entities[p.A], er.B.Entities[p.B]),
			Match:  false,
		})
	}
	return out
}

// Figure5Row is one dataset's user-study outcome.
type Figure5Row struct {
	Dataset string
	// S1 proportions over sampled synthesized entities (Q1).
	Agree, Neutral, Disagree float64
	// S2 confusion proportions over sampled pairs (Q2): row = synthetic
	// label, column = worker majority label.
	MatchAsMatch, MatchAsNon, NonAsMatch, NonAsNon float64
	EntitiesJudged, PairsJudged                    int
}

// UserStudy reproduces Exp-1 (Figure 5) with simulated annotators: Q1
// samples up to 500 synthesized entities per dataset, Q2 samples matching
// and non-matching synthesized pairs (paper: 500/100/500/100 per dataset).
func (s *Suite) UserStudy() ([]Figure5Row, error) {
	done := s.track("user_study")
	pairBudget := map[string]int{
		"DBLP-ACM": 500, "Restaurant": 100, "Walmart-Amazon": 500, "iTunes-Amazon": 100,
	}
	var rows []Figure5Row
	for _, name := range s.cfg.Datasets {
		g, err := s.Generated(name)
		if err != nil {
			return nil, err
		}
		syn, err := s.SynER(name, MethodSERD)
		if err != nil {
			return nil, err
		}
		r := s.Rand(301)

		// Q1: realness of synthesized entities, judged against real-entity
		// calibration.
		judge, err := userstudy.NewRealnessJudge(g.ER.Schema(), g.ER.A.Entities, g.Background, s.cfg.Seed+17)
		if err != nil {
			return nil, err
		}
		var pool []*dataset.Entity
		pool = append(pool, syn.A.Entities...)
		pool = append(pool, syn.B.Entities...)
		r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		if len(pool) > 500 {
			pool = pool[:500]
		}
		agree, neutral, disagree := judge.Proportions(pool)

		// Q2: matching verdicts on synthesized pairs.
		mj, err := userstudy.NewMatchJudge(g.ER.Schema(), s.cfg.Seed+19)
		if err != nil {
			return nil, err
		}
		budget := pairBudget[name]
		if budget == 0 {
			budget = 100
		}
		// Q2 judges the pairs SERD synthesized as matching (the paper's
		// "synthesized matching entity pairs"); S3's posterior-derived
		// labels are a different artifact.
		matching := syn.Matches
		if res, err := s.SERDResult(name); err == nil && len(res.SampledMatchPairs) > 0 {
			matching = res.SampledMatchPairs
		}
		matching = append([]dataset.Pair(nil), matching...)
		r.Shuffle(len(matching), func(i, j int) { matching[i], matching[j] = matching[j], matching[i] })
		if len(matching) > budget {
			matching = matching[:budget]
		}
		nonMatching := syn.NonMatchingPairs(budget, r)
		mAsM, mAsN, nAsM, nAsN := mj.ConfusionProportions(syn, matching, nonMatching)

		rows = append(rows, Figure5Row{
			Dataset: name,
			Agree:   agree, Neutral: neutral, Disagree: disagree,
			MatchAsMatch: mAsM, MatchAsNon: mAsN, NonAsMatch: nAsM, NonAsNon: nAsN,
			EntitiesJudged: len(pool), PairsJudged: len(matching) + len(nonMatching),
		})
	}
	done(len(rows))
	return rows, nil
}
