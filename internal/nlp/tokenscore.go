package nlp

// TokenScorer is an Analyzer compiled against an Interner: every per-token
// map lookup Score performs (negation, intensifier, lexicon-by-stem with
// raw-token fallback, stopword) is resolved once per vocabulary entry into
// dense tables indexed by TokenID. Scoring a post then touches no strings
// and no maps, and produces bit-identical Sentiment values to
// Analyzer.Score on the corresponding text.
//
// A scorer covers the tokens interned when it was compiled or last
// extended: a corpus compiles once after its interner is fully built, a
// store whose vocabulary grows with ingest calls Extend before scoring
// streams that may hold new tokens. Score is safe for concurrent use; Extend
// must not run beside it.
type TokenScorer struct {
	a        *Analyzer
	neg      []bool
	hasBoost []bool
	boost    []float64
	hasVal   []bool
	val      []float64
	plain    []bool // unvalenced non-stopword: counts toward neutral mass
}

// CompileScorer builds the dense scoring tables for every token currently
// interned in in.
func (a *Analyzer) CompileScorer(in *Interner) *TokenScorer {
	ts := &TokenScorer{a: a}
	ts.Extend(in)
	return ts
}

// Extend compiles table entries for every token interned in in since the
// scorer was compiled or last extended. in must be the interner the scorer
// was compiled against.
func (ts *TokenScorer) Extend(in *Interner) {
	a := ts.a
	for id := len(ts.neg); id < in.Len(); id++ {
		tok := in.Token(TokenID(id))
		stem := in.Token(in.StemID(TokenID(id)))
		boost, hasBoost := a.intensifiers[tok]
		v, ok := a.lexicon[stem]
		if !ok {
			v, ok = a.lexicon[tok]
		}
		ts.neg = append(ts.neg, a.negations[tok])
		ts.boost, ts.hasBoost = append(ts.boost, boost), append(ts.hasBoost, hasBoost)
		ts.val, ts.hasVal = append(ts.val, v), append(ts.hasVal, ok)
		ts.plain = append(ts.plain, !stopwords[tok])
	}
}

// Score replays Analyzer.Score over an interned token stream. The control
// flow and arithmetic mirror Score operation for operation, so the result
// is bit-identical to scoring the original text.
func (ts *TokenScorer) Score(ids []TokenID) Sentiment {
	var pos, neg float64
	plain := 0
	negateLeft := 0
	boost := 1.0
	for _, id := range ids {
		if ts.neg[id] {
			negateLeft = negationWindow
			boost = 1.0
			continue
		}
		if ts.hasBoost[id] {
			boost = ts.boost[id]
			continue
		}
		if !ts.hasVal[id] {
			if ts.plain[id] {
				plain++
			}
			if negateLeft > 0 {
				negateLeft--
			}
			continue
		}
		v := ts.val[id] * boost
		boost = 1.0
		if negateLeft > 0 {
			v = -v * 0.8 // negated sentiment is weaker than its opposite
			negateLeft--
		}
		if v > 0 {
			pos += v
		} else {
			neg += -v
		}
	}
	neutral := 0.55 + 0.05*float64(plain)
	total := pos + neg + neutral
	return Sentiment{Positive: pos / total, Negative: neg / total, Neutral: neutral / total}
}
