package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"usersignals/internal/usaas"
)

// This file is the coordinator's memory of shard state. Every shard answer
// carries a strong tag (partials protocol + boot nonce + store generations,
// usaas/cache.go), so the coordinator keeps, per shard, the decoded partials
// it fetched — by section and by model-phase request — each with the tag it
// was fetched at, and revalidates instead of refetching: a query whose
// sections are all held at the shard's current tag costs one bodiless 304
// per shard, a section is transferred and decoded at most once per shard
// generation, and the social section costs only the days that changed.
//
// Invariants:
//   - A shard stamps the tag it read before the content, so held content is
//     never older than its tag — at worst a later write is already in it.
//   - The held tag is the last one the shard answered under. Every entry but
//     the social one was fetched under it; an answer under any other tag
//     drops them all.
//   - The social entry is a base that survives a tag change: the shard's
//     social days, and the tag of the answer that last brought them up to
//     date. It is served from memory only while that tag is the held one,
//     but every request that includes social names it in since=, and the
//     shard answers either the days folded after it (a delta naming that
//     tag, patched onto the held days by day key) or everything (a restarted
//     shard, another protocol), which replaces them. Because the tag is read
//     before the content, a delta may already carry days newer than its own
//     tag; the next since= ships those again, so no day is ever skipped.
//     Patching is copy-on-write: renders may still hold the old days.
//   - Invalidation never depends on the coordinator seeing the write: it is
//     the shard's tag that moves. An empty sub-batch leaves it in place.
//   - Tags of different processes never match (the nonce), so a restarted
//     shard is a plain fetch, never a false 304, and a since= naming another
//     process's tag gets a full answer. A replicated shard's reads rotate
//     over its endpoints, each under its own nonce, so nothing is held for
//     it (New leaves shardConn.held nil) until replicas share a
//     content-addressed tag: it costs what it cost without the caches.
//   - Bounded: at most max entries per shard, FIFO, the social base among
//     them. Once it is evicted the next social fetch is a full one.

// socialKey holds the social section, which takes no parameters.
var socialKey = usaas.Section{Name: usaas.SectionSocial}.Key()

// modelKey identifies a model-phase request: its wire form.
func modelKey(req usaas.ModelPartialsRequest) string {
	body, err := json.Marshal(req)
	if err != nil {
		return "" // NaN coefficients: unencodable, so never sent either
	}
	return "model " + string(body)
}

// heldEntry is one decoded answer and the tag it was fetched at: a
// section's slice of the phase-one partials, or a model-phase result.
type heldEntry struct {
	tag   string
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

// lookup composes the sections among need held at the held tag into a
// bundle and lists the rest, with that tag and the social base (zero when
// none is held).
func (h *held) lookup(need []usaas.Section) (tag string, bundle *usaas.ShardPartials, missing []usaas.Section, base heldEntry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bundle = &usaas.ShardPartials{}
	for _, s := range need {
		if e, ok := h.entries[s.Key()]; ok && e.tag == h.tag {
			bundle.Take(s.Name, e.part)
		} else {
			missing = append(missing, s)
		}
	}
	return h.tag, bundle, missing, h.entries[socialKey]
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
// retires everything held first but the social base; an untagged answer (a
// shard that predates tags) retires that too and is not held at all.
func (h *held) put(tag, key string, e heldEntry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tag != tag {
		base, ok := h.entries[socialKey]
		h.tag = tag
		h.entries = map[string]heldEntry{}
		h.order = h.order[:0]
		if ok && tag != "" {
			h.putLocked(socialKey, base)
		}
	}
	if tag != "" {
		e.tag = tag
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
		h.putLocked(key, heldEntry{tag: tag, model: mp})
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
func (h *held) putSections(tag string, sections []usaas.Section, p *usaas.ShardPartials) {
	for _, s := range sections {
		piece := &usaas.ShardPartials{}
		piece.Take(s.Name, p)
		h.put(tag, s.Key(), heldEntry{part: piece})
	}
}

// partials returns the shard's bundle for the sections and the tag it is
// valid at, fetching only what is not already held at the shard's current
// tag. With everything held it sends one conditional request (304 warm);
// with something missing it fetches just that, and the answer's tag
// validates the held rest. If the tag moved in between, the held rest is
// stale: one whole answer replaces it. Either way, social comes as the days
// changed since the social base (fetch).
func (sc *shardConn) partials(ctx context.Context, need []usaas.Section) (*usaas.ShardPartials, string, error) {
	h := sc.held
	if h == nil {
		p, v, err := sc.fetch(ctx, need, "", heldEntry{})
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
	tag, bundle, missing, base := h.lookup(need)
	ask, cond := missing, ""
	if len(missing) == 0 {
		ask, cond = need, tag
	}
	p, v, err := sc.fetch(ctx, ask, cond, base)
	if err != nil {
		return nil, "", err
	}
	if v.NotModified {
		return bundle, tag, nil
	}
	if len(ask) < len(need) && v.Tag != tag {
		if p, v, err = sc.fetch(ctx, need, "", base); err != nil {
			return nil, "", err
		}
		ask = need
	}
	h.putSections(v.Tag, ask, &p)
	for _, s := range ask {
		bundle.Take(s.Name, &p)
	}
	return bundle, v.Tag, nil
}

// fetch is one observed /v1/partials exchange. When the sections include
// social and base holds its days, the request asks only for the days folded
// since base's tag and a delta answer is patched onto them; either way the
// social section comes back whole, with its merge rows derived once. An
// answer the merge cannot take fails the exchange like an unreachable shard.
func (sc *shardConn) fetch(ctx context.Context, sections []usaas.Section, cond string, base heldEntry) (p usaas.ShardPartials, v usaas.Validation, err error) {
	q := usaas.PartialsQuery(sections)
	social := slices.ContainsFunc(sections, func(s usaas.Section) bool { return s.Name == usaas.SectionSocial })
	since := ""
	if social && base.part != nil {
		since = base.tag
		q.Set("since", since)
	}
	var delta bool
	err = sc.call(func() (err error) {
		if p, v, err = sc.client.Partials(ctx, q, cond); err != nil || v.NotModified || !social {
			return err
		}
		if p.SocialSince != "" && p.SocialSince != since {
			return fmt.Errorf("social delta since %q, asked since %q", p.SocialSince, since)
		}
		delta, err = p.PatchSocial(base.part)
		return err
	})
	if err == nil {
		sc.count(v)
		if delta {
			sc.deltas.Add(1)
		}
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
