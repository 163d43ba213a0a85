package nlp

import "sort"

// WordCount pairs a term with its frequency.
type WordCount struct {
	Word  string
	Count int
}

// CountUnigrams builds a stemmed, stopword-filtered unigram frequency table
// over texts — the "word cloud" of the paper, as data instead of pixels.
func CountUnigrams(texts []string) map[string]int {
	counts := map[string]int{}
	for _, t := range texts {
		for _, tok := range ContentTokens(t) {
			counts[Stem(tok)]++
		}
	}
	return counts
}

// CountBigrams builds a frequency table of adjacent stemmed content-token
// pairs, joined by a space ("roaming enabled").
func CountBigrams(texts []string) map[string]int {
	counts := map[string]int{}
	for _, t := range texts {
		toks := ContentTokens(t)
		for i := 0; i+1 < len(toks); i++ {
			counts[Stem(toks[i])+" "+Stem(toks[i+1])]++
		}
	}
	return counts
}

// Top returns the k highest-count terms, ties broken alphabetically for
// determinism.
func Top(counts map[string]int, k int) []WordCount {
	out := make([]WordCount, 0, len(counts))
	for w, c := range counts {
		out = append(out, WordCount{Word: w, Count: c})
	}
	return Rank(out, k)
}

// Rank returns the first k of words in word-cloud order — count descending,
// ties broken alphabetically. It works in place: the result aliases words,
// whose remainder is left in no particular state.
func Rank(words []WordCount, k int) []WordCount {
	before := func(a, b *WordCount) bool {
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Word < b.Word
	}
	if k <= 0 {
		return words[:0]
	}
	if k >= len(words) || k > 32 {
		sort.Slice(words, func(i, j int) bool { return before(&words[i], &words[j]) })
		return words[:min(k, len(words))]
	}
	// A short head of a long list (a day's cloud keeps 12 of a few hundred
	// stems): keep words[:m] ranked and insert only what beats its tail.
	m := 0
	for i := range words {
		w := words[i]
		if m == k && !before(&w, &words[m-1]) {
			continue
		}
		if m < k {
			m++
		}
		j := m - 1
		for ; j > 0 && before(&w, &words[j-1]); j-- {
			words[j] = words[j-1]
		}
		words[j] = w
	}
	return words[:m]
}

// WordCloud is the ranked unigram table for a set of texts: what the paper
// renders as a cloud and then reads the top unigrams from.
func WordCloud(texts []string, k int) []WordCount {
	return Top(CountUnigrams(texts), k)
}

// Dictionary is a set of keywords and phrases matched against stemmed
// tokens. Phrases match as consecutive stemmed tokens.
type Dictionary struct {
	words   map[string]bool
	phrases [][]string
}

// NewDictionary builds a dictionary from entries; multi-word entries become
// phrase patterns. Entries are tokenized and stemmed, so surface variants
// ("outages", "Outage") normalize to the same pattern.
func NewDictionary(entries ...string) *Dictionary {
	d := &Dictionary{words: map[string]bool{}}
	for _, e := range entries {
		toks := StemAll(Tokenize(e))
		switch len(toks) {
		case 0:
		case 1:
			d.words[toks[0]] = true
		default:
			d.phrases = append(d.phrases, toks)
		}
	}
	return d
}

// OutageDictionary is the §4.1 hand-built keyword list for outage-related
// discussion. (The paper notes building it was "a manual tedious process";
// here it is code.)
func OutageDictionary() *Dictionary {
	return NewDictionary(
		"outage", "outages", "down", "offline", "downtime",
		"disconnected", "disconnects", "disconnecting",
		"no service", "no connection", "no internet", "lost connection",
		"lost signal", "went down", "is down", "service interruption",
		"interruption", "obstructed", "dead", "dropping out",
		"cant connect", "won't connect", "not working", "stopped working",
	)
}

// Count returns how many dictionary hits appear in text (each phrase
// occurrence and each matching token counts once).
func (d *Dictionary) Count(text string) int {
	toks := StemAll(Tokenize(text))
	n := 0
	for _, t := range toks {
		if d.words[t] {
			n++
		}
	}
	for _, ph := range d.phrases {
		for i := 0; i+len(ph) <= len(toks); i++ {
			match := true
			for j, p := range ph {
				if toks[i+j] != p {
					match = false
					break
				}
			}
			if match {
				n++
			}
		}
	}
	return n
}

// Matches reports whether the text contains any dictionary entry.
func (d *Dictionary) Matches(text string) bool { return d.Count(text) > 0 }
