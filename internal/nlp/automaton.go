package nlp

import "sort"

// Matcher is a Dictionary compiled against an Interner into an
// Aho-Corasick automaton over stem TokenIDs: one pass over a post's token
// stream counts every word and phrase hit at once, replacing
// Dictionary.Count's O(tokens × phrases × phrase-len) rescans. Counting
// semantics are identical to the naive scan — each matching token and each
// phrase occurrence (including overlapping occurrences) counts once — which
// fuzz_test.go checks against Dictionary.Count on arbitrary input.
//
// Patterns containing a token absent from the interner can never occur in
// any stream interned so far, so they are dropped at compile time rather
// than forcing the interner to grow; a Matcher never mutates its interner.
// An interner that keeps growing after the compile (a store's, fed by
// ingest) calls Dictionary.InternInto first: then no pattern is dropped,
// and because matching resolves stems through the live interner the
// automaton stays exact for every token interned later. Immutable and safe
// for concurrent use (beside interner growth only under the caller's lock).
type Matcher struct {
	in   *Interner
	next []map[TokenID]int32 // trie edges per state, keyed by stem ID
	fail []int32             // failure links
	out  []int32             // patterns ending at state (suffix-aggregated)
	// root has a bit set (by stem ID mod 256) for every stem some pattern
	// starts with: most tokens start none, and skip the root's map.
	root [4]uint64
}

// InternInto interns every token of d's entries, so that a matcher compiled
// against in afterwards keeps all its patterns however in grows. Words are
// interned in sorted order, so the IDs they get — and everything ordered by
// ID, such as a shard's per-day term rows — are the same in every process.
func (d *Dictionary) InternInto(in *Interner) {
	words := make([]string, 0, len(d.words))
	for w := range d.words {
		words = append(words, w)
	}
	sort.Strings(words)
	for _, w := range words {
		in.Intern(w)
	}
	for _, ph := range d.phrases {
		for _, t := range ph {
			in.Intern(t)
		}
	}
}

// CompileMatcher builds the automaton for d's entries over in's current
// vocabulary.
func (d *Dictionary) CompileMatcher(in *Interner) *Matcher {
	m := &Matcher{
		in:   in,
		next: []map[TokenID]int32{{}},
		fail: []int32{0},
		out:  []int32{0},
	}
	insert := func(pat []TokenID) {
		s := int32(0)
		for _, id := range pat {
			nx, ok := m.next[s][id]
			if !ok {
				nx = int32(len(m.next))
				m.next[s][id] = nx
				m.next = append(m.next, map[TokenID]int32{})
				m.fail = append(m.fail, 0)
				m.out = append(m.out, 0)
			}
			s = nx
		}
		m.out[s]++
	}
	// Dictionary entries are already stemmed; resolve them to stem IDs.
	buf := make([]TokenID, 0, 8)
	resolve := func(toks ...string) ([]TokenID, bool) {
		buf = buf[:0]
		for _, t := range toks {
			id, ok := in.Lookup(t)
			if !ok {
				return nil, false
			}
			buf = append(buf, id)
		}
		return buf, true
	}
	for w := range d.words {
		if ids, ok := resolve(w); ok {
			insert(ids)
		}
	}
	for _, ph := range d.phrases {
		if ids, ok := resolve(ph...); ok {
			insert(ids)
		}
	}
	// Breadth-first failure links; out is aggregated along them so a state
	// carries every pattern ending at any suffix of its path (a phrase hit
	// and a word hit at the same position both count, as in the naive scan).
	queue := make([]int32, 0, len(m.next))
	for id, nx := range m.next[0] {
		queue = append(queue, nx)
		m.root[id>>6&3] |= 1 << (id & 63)
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		for id, nx := range m.next[s] {
			queue = append(queue, nx)
			f := m.fail[s]
			for f != 0 {
				if _, ok := m.next[f][id]; ok {
					break
				}
				f = m.fail[f]
			}
			if t, ok := m.next[f][id]; ok {
				m.fail[nx] = t
			}
			m.out[nx] += m.out[m.fail[nx]]
		}
	}
	return m
}

// step advances the automaton from state s on the stem of token id.
func (m *Matcher) step(s int32, id TokenID) int32 {
	sid := m.in.stems[id]
	if s == 0 && m.root[sid>>6&3]&(1<<(sid&63)) == 0 {
		return 0
	}
	for {
		if t, ok := m.next[s][sid]; ok {
			return t
		}
		if s == 0 {
			return 0
		}
		s = m.fail[s]
	}
}

// Count returns the total dictionary hits in an interned token stream:
// exactly Dictionary.Count of the corresponding text. ids are raw token
// IDs; stem resolution happens inside via the interner's stem table.
func (m *Matcher) Count(ids []TokenID) int {
	n := 0
	s := int32(0)
	for _, id := range ids {
		s = m.step(s, id)
		n += int(m.out[s])
	}
	return n
}

// Matches reports whether the stream contains any dictionary hit, stopping
// at the first.
func (m *Matcher) Matches(ids []TokenID) bool {
	s := int32(0)
	for _, id := range ids {
		s = m.step(s, id)
		if m.out[s] > 0 {
			return true
		}
	}
	return false
}
