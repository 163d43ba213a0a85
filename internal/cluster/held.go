package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"usersignals/internal/usaas"
)

// This file is the coordinator's memory of shard state. Every shard answer
// carries a strong tag (partials protocol + boot nonce + store generations,
// usaas/cache.go), so the coordinator keeps, per shard, the decoded partials
// it fetched — by section and by model-phase request — each with the tag it
// was fetched at, and revalidates instead of refetching: a query whose
// sections are all held at the shard's current tag costs one bodiless 304
// per shard, and a section whose shard moved costs only the elements (days,
// months, rated runs) that changed.
//
// Invariants:
//   - A shard stamps the tag it read before the content, so held content is
//     never older than its tag — at worst a later write is already in it.
//   - The held tag is the last one the shard answered under. A section held
//     at it is served from memory; model-phase answers are held only at it,
//     and an answer under any other tag drops them.
//   - Every held section is a base that survives a tag change: its content
//     and the tag of the answer that last brought it up to date. A request
//     whose sections all have bases names the oldest of their tags in
//     since= — oldest in fetch order, which within one shard process is
//     generation order, so no tag is parsed here. The shard answers either
//     the elements changed after that tag (a delta naming it) or everything
//     (a restarted shard, another protocol). Each section of a delta is
//     patched onto its own base by key (usaas.ShardPartials.Patch): the
//     elements changed since the oldest tag include every one changed since
//     a newer base's, and each is replaced with current content, so patching
//     a newer base is exact too. Because the tag is read before the content,
//     a delta may already carry elements newer than its own tag; the next
//     since= ships those again, so none is ever skipped. Patching is
//     copy-on-write: renders may still hold the old sections.
//   - Invalidation never depends on the coordinator seeing the write: it is
//     the shard's tag that moves. An empty sub-batch leaves it in place.
//   - Tags of different processes never match (the nonce), so a restarted
//     shard is a plain fetch, never a false 304, and a since= naming another
//     process's tag gets a full answer. A replicated shard's reads rotate
//     over its endpoints, each under its own nonce, so nothing is held for
//     it (New leaves shardConn.held nil) until replicas share a
//     content-addressed tag: it costs what it cost without the caches.
//   - Bounded: at most max entries per shard, FIFO, bases among them. Once a
//     base is evicted the next fetch of its section is a full one.

// modelKey identifies a model-phase request: its wire form.
func modelKey(req usaas.ModelPartialsRequest) string {
	body, err := json.Marshal(req)
	if err != nil {
		return "" // NaN coefficients: unencodable, so never sent either
	}
	return "model " + string(body)
}

// heldEntry is one decoded answer, the tag it was fetched at and when: a
// section's slice of the phase-one partials, or a model-phase result.
type heldEntry struct {
	tag   string
	seq   uint64 // fetch order: a lower seq was fetched earlier
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
	seq     uint64
	entries map[string]heldEntry
	order   []string // FIFO eviction order
}

func newHeld(max int) *held {
	return &held{turn: make(chan struct{}, 1), max: max, entries: map[string]heldEntry{}}
}

// lookup composes the sections among need held at the held tag into a
// bundle and lists the rest, with that tag and every base among need's
// sections, by key.
func (h *held) lookup(need []usaas.Section) (tag string, bundle *usaas.ShardPartials, missing []usaas.Section, bases map[string]heldEntry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bundle, bases = &usaas.ShardPartials{}, map[string]heldEntry{}
	for _, s := range need {
		e, ok := h.entries[s.Key()]
		if ok {
			bases[s.Key()] = e
		}
		if ok && e.tag == h.tag {
			bundle.Take(s.Name, e.part)
		} else {
			missing = append(missing, s)
		}
	}
	return h.tag, bundle, missing, bases
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

// putSections holds each section of an answer fetched under tag. A tag
// other than the held one first retires the model-phase answers; an
// untagged answer (a shard that predates tags) retires everything and is
// not held at all.
func (h *held) putSections(tag string, sections []usaas.Section, pieces []*usaas.ShardPartials) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tag != tag {
		h.tag = tag
		kept := h.order[:0]
		for _, key := range h.order {
			if tag != "" && h.entries[key].part != nil {
				kept = append(kept, key)
			} else {
				delete(h.entries, key)
			}
		}
		h.order = kept
	}
	if tag == "" {
		return
	}
	for i, s := range sections {
		h.seq++
		h.putLocked(s.Key(), heldEntry{tag: tag, seq: h.seq, part: pieces[i]})
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
		h.seq++
		h.putLocked(key, heldEntry{tag: tag, seq: h.seq, model: mp})
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

// partials returns the shard's bundle for the sections and the tag it is
// valid at, fetching only what is not already held at the shard's current
// tag. With everything held it sends one conditional request (304 warm);
// with something missing it fetches just that, and the answer's tag
// validates the held rest. If the tag moved in between, the held rest is
// stale: one whole answer replaces it. Either way, sections with bases come
// as the elements changed since the oldest of them (fetch).
func (sc *shardConn) partials(ctx context.Context, need []usaas.Section) (*usaas.ShardPartials, string, error) {
	h := sc.held
	if h == nil {
		pieces, v, err := sc.fetch(ctx, need, "", nil)
		if err != nil {
			return nil, "", err
		}
		bundle := &usaas.ShardPartials{}
		for i, s := range need {
			bundle.Take(s.Name, pieces[i])
		}
		return bundle, v.Tag, nil
	}
	select {
	case h.turn <- struct{}{}:
		defer func() { <-h.turn }()
	case <-ctx.Done():
		return nil, "", ctx.Err()
	}
	tag, bundle, missing, bases := h.lookup(need)
	ask, cond := missing, ""
	if len(missing) == 0 {
		ask, cond = need, tag
	}
	pieces, v, err := sc.fetch(ctx, ask, cond, bases)
	if err != nil {
		return nil, "", err
	}
	if v.NotModified {
		return bundle, tag, nil
	}
	if len(ask) < len(need) && v.Tag != tag {
		if pieces, v, err = sc.fetch(ctx, need, "", bases); err != nil {
			return nil, "", err
		}
		ask = need
	}
	h.putSections(v.Tag, ask, pieces)
	for i, s := range ask {
		bundle.Take(s.Name, pieces[i])
	}
	return bundle, v.Tag, nil
}

// oldestBase is the since= a request for the sections may name: the tag of
// the earliest fetched of their bases, or "" when one of them has none.
func oldestBase(sections []usaas.Section, bases map[string]heldEntry) string {
	var oldest heldEntry
	for _, s := range sections {
		e, ok := bases[s.Key()]
		if !ok {
			return ""
		}
		if oldest.part == nil || e.seq < oldest.seq {
			oldest = e
		}
	}
	return oldest.tag
}

// fetch is one observed /v1/partials exchange, split into one whole bundle
// per section. When every section has a base, the request asks only for the
// elements changed since the oldest base's tag, and a delta answer has each
// section patched onto its own base; either way every section is validated
// and its merge rows derived once. An answer the merge cannot take fails the
// exchange like an unreachable shard.
func (sc *shardConn) fetch(ctx context.Context, sections []usaas.Section, cond string, bases map[string]heldEntry) (pieces []*usaas.ShardPartials, v usaas.Validation, err error) {
	q := usaas.PartialsQuery(sections)
	since := oldestBase(sections, bases)
	if since != "" {
		q.Set("since", since)
	}
	var delta bool
	err = sc.call(func() error {
		p, vv, err := sc.client.Partials(ctx, q, cond)
		if v = vv; err != nil || v.NotModified {
			return err
		}
		if p.Since != "" && p.Since != since {
			return fmt.Errorf("delta since %q, asked since %q", p.Since, since)
		}
		delta = p.Since != ""
		pieces = make([]*usaas.ShardPartials, len(sections))
		for i, s := range sections {
			pieces[i] = &usaas.ShardPartials{}
			pieces[i].Take(s.Name, &p)
			if _, err := pieces[i].Patch(bases[s.Key()].part); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		sc.count(v)
		if delta {
			sc.deltas.Add(1)
		}
	}
	return pieces, v, err
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
		if mp, v, err = sc.client.ModelPartials(ctx, req); err != nil {
			return err
		}
		return mp.Validate()
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
