package social

import (
	"usersignals/internal/nlp"
	"usersignals/internal/parallel"
)

// TokenCache is the corpus's tokenize-once index: every post's title, body,
// and retained replies lexed, stemmed, and interned exactly once into dense
// nlp.TokenID streams backed by a single arena. Downstream analyses
// (sentiment, word clouds, dictionary matching, trend mining) then operate
// on integer slices and never touch post text again.
//
// Token streams are stored per post as one thread-ordered run: the post's
// own text first (Title then Body — the token sequence of Post.Text,
// because the ". " joiner can never fuse tokens across the boundary),
// followed by each retained reply (the token sequence of Post.ThreadText).
// Neither string concatenation is ever materialized.
type TokenCache struct {
	in    *nlp.Interner
	arena []nlp.TokenID
	spans []tokenSpan // indexed like Corpus.Posts
}

type tokenSpan struct {
	off       int32
	textLen   int32 // tokens of Title+Body (Post.Text)
	threadLen int32 // textLen + reply tokens (Post.ThreadText)
}

// Interner returns the corpus vocabulary. Read-only.
func (tc *TokenCache) Interner() *nlp.Interner { return tc.in }

// Text returns post i's interned Text token stream (shared; read-only).
func (tc *TokenCache) Text(i int) []nlp.TokenID {
	sp := tc.spans[i]
	return tc.arena[sp.off : sp.off+sp.textLen]
}

// Thread returns post i's interned ThreadText token stream (shared;
// read-only).
func (tc *TokenCache) Thread(i int) []nlp.TokenID {
	sp := tc.spans[i]
	return tc.arena[sp.off : sp.off+sp.threadLen]
}

// Tokens returns the corpus token cache, building it on first use with one
// worker per CPU. The build is deterministic at any worker count (see
// buildTokenCache), so lazy construction never changes analysis output.
func (c *Corpus) Tokens() *TokenCache { return c.BuildTokens(0) }

// BuildTokens builds (or returns the already-built) token cache using the
// given worker count; zero or negative means one per CPU.
func (c *Corpus) BuildTokens(workers int) *TokenCache {
	c.tokOnce.Do(func() { c.tokens = buildTokenCache(c, workers) })
	return c.tokens
}

// AppendPostTokens lexes one post into in and appends its thread-ordered
// token run to dst: Title and Body first (textLen tokens, the sequence of
// Post.Text), then each retained reply (the rest of Post.ThreadText).
func AppendPostTokens(in *nlp.Interner, dst []nlp.TokenID, p *Post) (out []nlp.TokenID, textLen int) {
	off := len(dst)
	dst = in.AppendTokens(dst, p.Title)
	dst = in.AppendTokens(dst, p.Body)
	textLen = len(dst) - off
	for k := range p.Replies {
		dst = in.AppendTokens(dst, p.Replies[k].Text)
	}
	return dst, textLen
}

// buildTokenCache shards posts into canonical chunks (parallel.ChunkSize,
// boundaries depending only on post count): each worker lexes its chunk
// into a chunk-local interner, and a serial merge in chunk order re-interns
// each chunk's vocabulary into the global interner and remaps its token
// streams. Global TokenIDs are therefore assigned in (chunk, local-ID)
// order — a pure function of the post sequence — so the cache is
// byte-identical at any worker count.
func buildTokenCache(c *Corpus, workers int) *TokenCache {
	n := len(c.Posts)
	tc := &TokenCache{in: nlp.NewInterner()}
	if n == 0 {
		return tc
	}

	type chunkTokens struct {
		local *nlp.Interner
		arena []nlp.TokenID // chunk-local IDs
		spans []tokenSpan   // offsets relative to the chunk arena
	}
	parts, _ := parallel.Map(workers, parallel.Chunks(n), func(i int) (chunkTokens, error) {
		lo, hi := parallel.ChunkBounds(i, n)
		ct := chunkTokens{local: nlp.NewInterner(), spans: make([]tokenSpan, 0, hi-lo)}
		for j := lo; j < hi; j++ {
			off := int32(len(ct.arena))
			var textLen int
			ct.arena, textLen = AppendPostTokens(ct.local, ct.arena, &c.Posts[j])
			ct.spans = append(ct.spans, tokenSpan{off: off, textLen: int32(textLen), threadLen: int32(len(ct.arena)) - off})
		}
		return ct, nil
	})

	total := 0
	for _, ct := range parts {
		total += len(ct.arena)
	}
	tc.arena = make([]nlp.TokenID, 0, total)
	tc.spans = make([]tokenSpan, 0, n)
	for _, ct := range parts {
		remap := make([]nlp.TokenID, ct.local.Len())
		for id := range remap {
			remap[id] = tc.in.Intern(ct.local.Token(nlp.TokenID(id)))
		}
		base := int32(len(tc.arena))
		for _, id := range ct.arena {
			tc.arena = append(tc.arena, remap[id])
		}
		for _, sp := range ct.spans {
			sp.off += base
			tc.spans = append(tc.spans, sp)
		}
	}
	return tc
}
