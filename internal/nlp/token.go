package nlp

import (
	"unicode"
	"unicode/utf8"
)

// This file is the tokenize-once substrate: a zero-allocation tokenizer
// iterator, a token interner mapping stemmed tokens to dense TokenIDs, and
// ID-space replacements for the word-cloud counting helpers. Together with
// the compiled scorer (tokenscore.go) and the dictionary automaton
// (automaton.go) it lets every §4 analysis run over cached integer token
// streams instead of re-lexing raw text; equivalence with the string-based
// reference pipeline (Tokenize/StemAll/Dictionary.Count/Analyzer.Score) is
// fuzz-checked in fuzz_test.go.

// TokenID is a dense identifier an Interner assigns to a distinct token
// string. IDs are assigned in interning order, so a corpus built with
// canonical chunking numbers its vocabulary identically at any worker count.
type TokenID uint32

// Tokenizer iterates the tokens of a string without materializing a
// []string: it yields exactly the token sequence Tokenize returns, one
// token at a time, reusing a single internal buffer.
type Tokenizer struct {
	s   string
	i   int
	buf []byte
}

// Reset points the tokenizer at s and rewinds it.
func (t *Tokenizer) Reset(s string) { t.s, t.i = s, 0 }

// Next returns the next token and true, or nil and false at end of input.
// The returned slice aliases an internal buffer valid only until the next
// call to Next or Reset; callers must copy (or intern) it to retain it.
func (t *Tokenizer) Next() ([]byte, bool) {
	buf := t.buf[:0]
	s := t.s
	for t.i < len(s) {
		r, size := rune(s[t.i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[t.i:])
		}
		t.i += size
		// ASCII, nearly all of a post, skips the Unicode tables.
		switch {
		case 'a' <= r && r <= 'z', '0' <= r && r <= '9':
			buf = append(buf, byte(r))
			continue
		case 'A' <= r && r <= 'Z':
			buf = append(buf, byte(r)+('a'-'A'))
			continue
		case r >= utf8.RuneSelf && (unicode.IsLetter(r) || unicode.IsDigit(r)):
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
			continue
		}
		if r == '\'' && len(buf) > 0 {
			if nr, _ := utf8.DecodeRuneInString(s[t.i:]); unicode.IsLetter(nr) {
				// intra-word apostrophe: drop it, keep the word together
				continue
			}
		}
		if len(buf) > 0 {
			t.buf = buf
			return buf, true
		}
	}
	t.buf = buf
	if len(buf) > 0 {
		return buf, true
	}
	return nil, false
}

// Interner assigns dense TokenIDs to token strings and memoizes, per ID,
// the derived per-token facts every analysis needs: the stem (itself
// interned), stopword membership, and word-cloud content eligibility.
// Stemming therefore runs once per distinct token instead of once per
// occurrence. An Interner is not safe for concurrent mutation; once fully
// built it is immutable and safe for concurrent readers.
type Interner struct {
	ids     map[string]TokenID
	toks    []string  // id → token text
	stems   []TokenID // id → id of Stem(token)
	stop    []bool    // id → IsStopword(token)
	content []bool    // id → len(token) > 1 && !stopword (ContentTokens filter)
	tz      Tokenizer // AppendTokens' lexer, kept for its buffer
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]TokenID)}
}

// Len returns the number of interned tokens. Valid IDs are [0, Len).
func (in *Interner) Len() int { return len(in.toks) }

// Intern returns the ID for tok, assigning the next dense ID (and interning
// tok's stem) on first sight.
func (in *Interner) Intern(tok string) TokenID {
	if id, ok := in.ids[tok]; ok {
		return id
	}
	return in.add(tok)
}

// InternBytes is Intern for a byte-slice token (e.g. straight from a
// Tokenizer); it allocates only when the token has not been seen before.
func (in *Interner) InternBytes(tok []byte) TokenID {
	if id, ok := in.ids[string(tok)]; ok {
		return id
	}
	return in.add(string(tok))
}

func (in *Interner) add(tok string) TokenID {
	id := TokenID(len(in.toks))
	in.ids[tok] = id
	in.toks = append(in.toks, tok)
	in.stems = append(in.stems, id) // fixed up below
	in.stop = append(in.stop, stopwords[tok])
	in.content = append(in.content, len(tok) > 1 && !stopwords[tok])
	if st := Stem(tok); st != tok {
		in.stems[id] = in.Intern(st)
	}
	return id
}

// Lookup returns the ID for tok without interning it.
func (in *Interner) Lookup(tok string) (TokenID, bool) {
	id, ok := in.ids[tok]
	return id, ok
}

// Token returns the token text for id.
func (in *Interner) Token(id TokenID) string { return in.toks[id] }

// StemID returns the ID of id's stem (id itself when the token is its own
// stem).
func (in *Interner) StemID(id TokenID) TokenID { return in.stems[id] }

// IsStop reports whether id's token is a stopword.
func (in *Interner) IsStop(id TokenID) bool { return in.stop[id] }

// IsContent reports whether id's token passes the ContentTokens filter
// (longer than one byte and not a stopword).
func (in *Interner) IsContent(id TokenID) bool { return in.content[id] }

// AppendTokens tokenizes s and appends the interned ID of each token to
// dst, returning the extended slice. It is the ID-space equivalent of
// Tokenize: in.Token of each appended ID reproduces Tokenize(s).
func (in *Interner) AppendTokens(dst []TokenID, s string) []TokenID {
	tz := &in.tz
	tz.Reset(s)
	for tok, ok := tz.Next(); ok; tok, ok = tz.Next() {
		dst = append(dst, in.InternBytes(tok))
	}
	return dst
}

// TopIDs converts an ID-keyed count table to the ranked WordCount list Top
// produces for the equivalent string-keyed table: count descending, ties
// broken alphabetically.
func TopIDs(in *Interner, counts map[TokenID]int, k int) []WordCount {
	out := make([]WordCount, 0, len(counts))
	for id, c := range counts {
		out = append(out, WordCount{Word: in.Token(id), Count: c})
	}
	return Rank(out, k)
}
