package usaas

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"usersignals/internal/social"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// sinceFixture is a store fed in stages, with the state tag and the full
// social answer recorded at every post generation it passed through.
type sinceFixture struct {
	srv  *Server
	tags []string // tags[g]: the tag at post generation g
	full []string // full[g]: the full /v1/partials?sections=social,speeds body at g
}

// partialsGet asks the server's handler directly for /v1/partials with the
// given sections and since=, and returns the status, the ETag and the body.
func partialsGet(srv *Server, sections, since string, header http.Header) (int, string, string) {
	q := url.Values{"sections": {sections}}
	if since != "" {
		q.Set("since", since)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/partials?"+q.Encode(), nil)
	for k, vs := range header {
		req.Header[k] = vs
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Header().Get("ETag"), rec.Body.String()
}

// newSinceFixture ingests sessions and posts in ragged stages: a
// session-only batch between post batches (a tag move that changes no
// social day) and one post held back from the first batch, delivered after
// later posts of its day were folded, so that day folds again.
func newSinceFixture(t testing.TB) *sinceFixture {
	t.Helper()
	recs, posts := crashDataset(t, 31)
	hold := -1
	for i := 1; i < 120; i++ {
		if posts[i].Day == posts[i+1].Day {
			hold = i
			break
		}
	}
	if hold < 0 {
		t.Fatal("no day with two posts in the first batch")
	}
	first := append(append([]social.Post(nil), posts[:hold]...), posts[hold+1:120]...)
	fx := &sinceFixture{srv: NewServer(&Store{}, ServerOptions{})}
	record := func() {
		_, postGen := fx.srv.store.Generations()
		for uint64(len(fx.tags)) <= postGen {
			_, tag, _ := partialsGet(fx.srv, "daily", "", nil)
			_, _, body := partialsGet(fx.srv, "social,speeds", "", nil)
			fx.tags, fx.full = append(fx.tags, tag), append(fx.full, body)
		}
	}
	record()
	steps := []struct {
		sessions []telemetry.SessionRecord
		posts    []social.Post
	}{
		{sessions: recs[:100]},
		{posts: first},
		{posts: posts[120:200]},
		{sessions: recs[100:200]},
		{posts: posts[hold : hold+1]},
		{posts: posts[200:]},
	}
	for i, st := range steps {
		if st.sessions != nil {
			if err := fx.srv.store.AddSessions(st.sessions); err != nil {
				t.Fatal(err)
			}
		}
		if st.posts != nil {
			if _, _, err := fx.srv.store.AddPostsBatch(fmt.Sprintf("since-%d", i), st.posts); err != nil {
				t.Fatal(err)
			}
		}
		record()
	}
	return fx
}

// decodePartials decodes an answer the way a coordinator does.
func decodePartials(t testing.TB, body string) *ShardPartials {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	var p ShardPartials
	if err := dec.Decode(&p); err != nil {
		t.Fatalf("decoding %.200s: %v", body, err)
	}
	return &p
}

// TestPartialsSinceShipsChangedDays pins the since= rule: a delta against a
// base this process minted lists exactly the days folded after the base's
// post generation — a refolded day included, nothing for a base at the
// current generation — and anything else (malformed, another process's,
// from the future, of another protocol) gets the full answer, which is what
// CollectPartials returns.
func TestPartialsSinceShipsChangedDays(t *testing.T) {
	fx := newSinceFixture(t)
	srv := fx.srv
	cur := len(fx.tags) - 1
	full := fx.full[cur]

	want, err := srv.CollectPartials([]string{SectionSocial, SectionSpeeds}, nil, telemetry.Presence, "")
	if err != nil {
		t.Fatal(err)
	}
	if body := string(mustJSON(want)) + "\n"; body != full {
		t.Fatalf("a full answer differs from CollectPartials\nanswer:  %.300s\ncollect: %.300s", full, body)
	}
	if srv.store.refolds == 0 {
		t.Fatal("scenario broken: the held-back post folded no day again")
	}

	v := srv.store.social()
	empty := 0
	for base, tag := range fx.tags {
		var wantDays []timeline.Day
		for _, a := range v.days {
			if a.gen > uint64(base) {
				wantDays = append(wantDays, a.Day)
			}
		}
		status, _, body := partialsGet(srv, "social", tag, nil)
		p := decodePartials(t, body)
		var gotDays []timeline.Day
		for _, d := range p.Social {
			gotDays = append(gotDays, d.Day)
		}
		if status != http.StatusOK || p.SocialSince != tag || !reflect.DeepEqual(gotDays, wantDays) {
			t.Errorf("since generation %d: status %d, since %q, days %v; want 200, %q, %v", base, status, p.SocialSince, gotDays, tag, wantDays)
		}
		if len(wantDays) == 0 {
			empty++
		}
	}
	if empty != 1 {
		t.Errorf("%d bases gave an empty delta, want exactly the current one", empty)
	}

	parts := strings.Split(strings.Trim(fx.tags[cur], `"`), ".")
	for name, since := range map[string]string{
		"malformed":      "not-a-tag",
		"empty fields":   `"..."`,
		"foreign":        fmt.Sprintf(`"%s.%s.%s.%s"`, parts[0], "0123456789abcdef", parts[2], parts[3]),
		"future":         fmt.Sprintf(`"%s.%s.%s.%d"`, parts[0], parts[1], parts[2], cur+1),
		"other protocol": fmt.Sprintf(`"%d.%s.%s.%s"`, PartialsProtocol+1, parts[1], parts[2], parts[3]),
		"negative":       fmt.Sprintf(`"%s.%s.%s.-1"`, parts[0], parts[1], parts[2]),
	} {
		if _, _, body := partialsGet(srv, "social,speeds", since, nil); body != full {
			t.Errorf("%s base %s: not the full answer: %.200s", name, since, body)
		}
	}

	// The protocol header: a request naming another protocol is refused
	// with both numbers, one naming none is served, and every answer names
	// the protocol.
	other := strconv.Itoa(PartialsProtocol + 1)
	status, _, body := partialsGet(srv, "daily", "", http.Header{PartialsProtocolHeader: {other}})
	var refusal apiError
	_ = json.Unmarshal([]byte(body), &refusal)
	if status != http.StatusBadRequest || !strings.Contains(refusal.Error, strconv.Quote(other)) || !strings.Contains(refusal.Error, "speaks "+partialsProtocol) {
		t.Errorf("request naming protocol %s: %d %s; want a 400 naming both", other, status, body)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/partials?sections=daily", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Header().Get(PartialsProtocolHeader) != partialsProtocol {
		t.Errorf("request naming no protocol: %d, answer names %q", rec.Code, rec.Header().Get(PartialsProtocolHeader))
	}

	// A session batch moves the tag but folds no day: a base at the post
	// generation before it gets an empty delta.
	recs, _ := crashDataset(t, 31)
	if err := srv.store.AddSessions(recs[200:]); err != nil {
		t.Fatal(err)
	}
	_, moved, body := partialsGet(srv, "social", fx.tags[cur], nil)
	if p := decodePartials(t, body); moved == fx.tags[cur] || p.SocialSince != fx.tags[cur] || len(p.Social) != 0 {
		t.Errorf("after a session batch (tag %s → %s): since %q, %d days; want an empty delta", fx.tags[cur], moved, p.SocialSince, len(p.Social))
	}
}

// FuzzPartialsSince: whatever since= says, the shard answers 200 with the
// full answer, or with a delta that, patched onto the full answer held at
// the base it names, is the current full answer.
func FuzzPartialsSince(f *testing.F) {
	fx := newSinceFixture(f)
	for _, tag := range fx.tags {
		f.Add(tag)
		f.Add(strings.Trim(tag, `"`))
	}
	f.Add("")
	f.Add(`"2.x.1.1"`)
	f.Add(`"....."`)
	cur := decodePartials(f, fx.full[len(fx.full)-1])
	f.Fuzz(func(t *testing.T, since string) {
		status, _, body := partialsGet(fx.srv, "social,speeds", since, nil)
		if status != http.StatusOK {
			t.Fatalf("since %q: status %d %s", since, status, body)
		}
		got := decodePartials(t, body)
		if got.SocialSince == "" {
			if body != fx.full[len(fx.full)-1] {
				t.Fatalf("since %q: neither a delta nor the full answer: %.200s", since, body)
			}
			return
		}
		if got.SocialSince != since {
			t.Fatalf("since %q: a delta naming %q", since, got.SocialSince)
		}
		fields := strings.Split(strings.Trim(since, `"`), ".")
		base, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
		if err != nil || base >= uint64(len(fx.full)) {
			t.Fatalf("since %q: a delta against a generation never held", since)
		}
		delta, err := got.PatchSocial(decodePartials(t, fx.full[base]))
		if err != nil || !delta {
			t.Fatalf("since %q: patch: delta %v, %v", since, delta, err)
		}
		if !sameJSON(got, cur) || !reflect.DeepEqual(got.SocialRows(), cur.SocialRows()) {
			t.Fatalf("since %q: patched delta differs from the current full answer", since)
		}
	})
}

// TestPatchSocialRejectsMalformedDays: a shard answer the merge cannot take
// fails the exchange instead of indexing past an array.
func TestPatchSocialRejectsMalformedDays(t *testing.T) {
	day := func(d timeline.Day, terms int) SocialDayPartial {
		return SocialDayPartial{Day: d, Posts: 1, Terms: make([]string, terms), Weights: make([]float64, 1), Pos: make([]int, 1), Total: make([]int, 1)}
	}
	for name, p := range map[string]*ShardPartials{
		"unequal term arrays": {Social: []SocialDayPartial{day(3, 2)}},
		"days out of order":   {Social: []SocialDayPartial{day(4, 1), day(3, 1)}},
		"a repeated day":      {Social: []SocialDayPartial{day(3, 1), day(3, 1)}},
		"a delta, no base":    {SocialSince: "x", Social: []SocialDayPartial{day(3, 1)}},
	} {
		if _, err := p.PatchSocial(nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
