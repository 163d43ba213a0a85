package cluster

import (
	"context"
	"encoding/json"
	"net/url"
	"strings"
	"sync"

	"usersignals/internal/usaas"
)

// This file is the coordinator's memory of shard state. Every shard answer
// carries a strong tag (boot nonce + store generations, usaas/cache.go), so
// the coordinator keeps, per shard, one tag and the decoded partials it
// fetched at that tag — by section and by model-phase request — and
// revalidates instead of refetching: a query whose sections are all held
// costs one bodiless 304 per shard, and a section is transferred and decoded
// at most once per shard generation.
//
// Invariants:
//   - Everything held for a shard was fetched under the one tag held beside
//     it; an answer under any other tag drops it all. A shard stamps the tag
//     it read before the content, so held content is never older than its
//     tag — at worst a later write is already in it, and the next
//     revalidation (the tag moved) replaces it.
//   - Invalidation never depends on the coordinator seeing the write: it is
//     the shard's tag that moves. An empty sub-batch leaves it in place.
//   - Tags of different processes never match (the nonce), so a restarted
//     shard is a plain fetch, never a false 304. A replicated shard's reads
//     rotate over its endpoints, each under its own nonce, so nothing is
//     held for it (New leaves shardConn.held nil) until replicas share a
//     content-addressed tag: it costs what it cost without the caches.
//   - Bounded: at most max entries per shard, FIFO.

// section names one piece of shard state a query needs: a /v1/partials
// section plus the parameters that select it.
type section struct {
	name   string
	params url.Values
}

func (s section) key() string { return s.name + "?" + s.params.Encode() }

// partialsQuery is the /v1/partials query fetching the sections in one
// answer. No endpoint combines sections whose parameters collide.
func partialsQuery(sections []section) url.Values {
	names := make([]string, len(sections))
	q := url.Values{}
	for i, s := range sections {
		names[i] = s.name
		for k, v := range s.params {
			q[k] = v
		}
	}
	q.Set("sections", strings.Join(names, ","))
	return q
}

// modelKey identifies a model-phase request: its wire form.
func modelKey(req usaas.ModelPartialsRequest) string {
	body, err := json.Marshal(req)
	if err != nil {
		return "" // NaN coefficients: unencodable, so never sent either
	}
	return "model " + string(body)
}

// heldEntry is one decoded answer: a section's slice of the phase-one
// partials, or a model-phase result.
type heldEntry struct {
	part  *usaas.ShardPartials
	model *usaas.ModelPartials
}

// held is what the coordinator remembers of one shard.
type held struct {
	// turn admits one phase-one exchange per shard at a time, so concurrent
	// queries needing the same section fetch it once; the rest find it held.
	turn chan struct{}

	mu      sync.Mutex
	max     int
	tag     string
	entries map[string]heldEntry
	order   []string // FIFO eviction order
}

func newHeld(max int) *held {
	return &held{turn: make(chan struct{}, 1), max: max, entries: map[string]heldEntry{}}
}

// lookup composes the held sections among need into a bundle and lists the
// rest, with the tag the held ones are valid at.
func (h *held) lookup(need []section) (tag string, bundle *usaas.ShardPartials, missing []section) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bundle = &usaas.ShardPartials{}
	for _, s := range need {
		if e, ok := h.entries[s.key()]; ok {
			bundle.Take(s.name, e.part)
		} else {
			missing = append(missing, s)
		}
	}
	return h.tag, bundle, missing
}

// model returns the held model-phase answer for key, if the shard is still
// at tag.
func (h *held) model(tag, key string) *usaas.ModelPartials {
	h.mu.Lock()
	defer h.mu.Unlock()
	if tag == "" || h.tag != tag {
		return nil
	}
	return h.entries[key].model
}

// put records an answer fetched under tag. A tag other than the held one
// retires everything held first; an untagged answer (a shard that predates
// tags) is not held at all.
func (h *held) put(tag, key string, e heldEntry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tag != tag {
		h.tag = tag
		h.entries = map[string]heldEntry{}
		h.order = h.order[:0]
	}
	if tag != "" {
		h.putLocked(key, e)
	}
}

// putModel holds a model-phase answer computed at tag — unless the held
// state has moved past it meanwhile (a concurrent query saw a newer tag):
// the answer is consistent for its own query but must not displace newer
// state.
func (h *held) putModel(tag, key string, mp *usaas.ModelPartials) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if tag != "" && h.tag == tag {
		h.putLocked(key, heldEntry{model: mp})
	}
}

func (h *held) putLocked(key string, e heldEntry) {
	if _, ok := h.entries[key]; !ok {
		for len(h.order) >= h.max {
			delete(h.entries, h.order[0])
			h.order = h.order[1:]
		}
		h.order = append(h.order, key)
	}
	h.entries[key] = e
}

// putSections splits a multi-section answer into its sections and holds
// each under tag.
func (h *held) putSections(tag string, sections []section, p *usaas.ShardPartials) {
	for _, s := range sections {
		piece := &usaas.ShardPartials{}
		piece.Take(s.name, p)
		h.put(tag, s.key(), heldEntry{part: piece})
	}
}

// partials returns the shard's bundle for the sections and the tag it is
// valid at, fetching only what is not already held at the shard's current
// tag. With everything held it sends one conditional request (304 warm);
// with something missing it fetches just that, and the answer's tag
// validates the held rest. If the tag moved in between, the held rest is
// stale: one whole answer replaces it.
func (sc *shardConn) partials(ctx context.Context, need []section) (*usaas.ShardPartials, string, error) {
	h := sc.held
	if h == nil {
		p, v, err := sc.fetch(ctx, need, "")
		if err != nil {
			return nil, "", err
		}
		return &p, v.Tag, nil
	}
	select {
	case h.turn <- struct{}{}:
		defer func() { <-h.turn }()
	case <-ctx.Done():
		return nil, "", ctx.Err()
	}
	tag, bundle, missing := h.lookup(need)
	ask, cond := missing, ""
	if len(missing) == 0 {
		ask, cond = need, tag
	}
	p, v, err := sc.fetch(ctx, ask, cond)
	if err != nil {
		return nil, "", err
	}
	if v.NotModified {
		return bundle, tag, nil
	}
	if len(ask) < len(need) {
		if v.Tag == tag {
			h.putSections(tag, ask, &p)
			for _, s := range ask {
				bundle.Take(s.name, &p)
			}
			return bundle, tag, nil
		}
		if p, v, err = sc.fetch(ctx, need, ""); err != nil {
			return nil, "", err
		}
	}
	h.putSections(v.Tag, need, &p)
	return &p, v.Tag, nil
}

// fetch is one observed /v1/partials exchange.
func (sc *shardConn) fetch(ctx context.Context, sections []section, cond string) (p usaas.ShardPartials, v usaas.Validation, err error) {
	err = sc.call(func() error {
		p, v, err = sc.client.Partials(ctx, partialsQuery(sections), cond)
		return err
	})
	if err == nil {
		sc.count(v)
	}
	return p, v, err
}

// modelPartials returns the shard's model-phase answer and whether it is
// consistent with the phase-one state at tag: held under it, or freshly
// computed and stamped with it.
func (sc *shardConn) modelPartials(ctx context.Context, tag, key string, req usaas.ModelPartialsRequest) (usaas.ModelPartials, bool, error) {
	if sc.held != nil {
		if mp := sc.held.model(tag, key); mp != nil {
			return *mp, true, nil
		}
	}
	var mp usaas.ModelPartials
	var v usaas.Validation
	err := sc.call(func() (err error) {
		mp, v, err = sc.client.ModelPartials(ctx, req)
		return err
	})
	if err != nil {
		return mp, false, err
	}
	sc.count(v)
	same := v.Tag == tag
	if same && sc.held != nil {
		sc.held.putModel(tag, key, &mp)
	}
	return mp, same, nil
}
