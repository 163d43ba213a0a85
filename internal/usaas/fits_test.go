package usaas

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"usersignals/internal/social"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// dashboardReads is one operator-dashboard refresh: the 13 endpoints the
// benchmark's dashboard phase polls.
func dashboardReads(isp string) []string {
	return []string{
		"/v1/report",
		"/v1/insights/engagement?metric=latency-mean-ms&engagement=mic-on",
		"/v1/insights/engagement?metric=loss-mean-pct&engagement=presence&hi=5",
		"/v1/insights/mos",
		"/v1/insights/sentiment",
		"/v1/insights/peaks",
		"/v1/insights/outages",
		"/v1/insights/speeds",
		"/v1/insights/trends",
		"/v1/insights/confounders?engagement=presence",
		"/v1/advice/traffic-engineering",
		"/v1/insights/incidents?engagement=presence",
		"/v1/query/experience?isp=" + isp,
	}
}

// shardsSource is a coordinator's gather without its held state: every
// shard's sections decoded afresh from its /v1/partials answer, and the
// model phase shipped to every shard. Each gather hands the read path rated
// slices it has never seen, equal to the last ones unless a rating arrived.
type shardsSource struct{ shards []*Client }

func (shardsSource) Tag() string { return "" }

func (s shardsSource) Gather(ctx context.Context, sections []Section) *Gathered {
	g := &Gathered{Bundles: make([]*ShardPartials, len(s.shards))}
	for i, c := range s.shards {
		p, _, err := c.Partials(ctx, PartialsQuery(sections), "")
		if err == nil {
			_, err = p.Patch(nil)
		}
		if err != nil {
			g.Failed = append(g.Failed, err.Error())
			continue
		}
		g.Bundles[i] = &p
	}
	g.ModelPhase = func(req ModelPartialsRequest) ([]ModelPartials, bool, error) {
		out := make([]ModelPartials, len(s.shards))
		for i, c := range s.shards {
			mp, _, err := c.ModelPartials(ctx, req)
			if err != nil {
				return nil, false, err
			}
			out[i] = mp
		}
		return out, true, nil
	}
	return g
}

// fitsFrontEnd is a front end under test: its handler, its read path's memo,
// where a batch lands, and the same reads rendered with no memo.
type fitsFrontEnd struct {
	h, ref http.Handler
	fits   *ratedFits
	ingest func(id string, recs []telemetry.SessionRecord, posts []social.Post)
}

// fitsFrontEnds builds a node and a two-shard coordinator holding the same
// sessions and posts.
func fitsFrontEnds(t *testing.T, recs []telemetry.SessionRecord, posts []social.Post) map[string]*fitsFrontEnd {
	t.Helper()
	cfg, news := goldenSocialConfig()
	opts := ServerOptions{News: news, Model: cfg.Model, ResultCacheSize: -1}
	mount := func(rd *ReadPath) http.Handler {
		mux := http.NewServeMux()
		rd.Mount(mux)
		return mux
	}
	add := func(store *Store, id string, recs []telemetry.SessionRecord, posts []social.Post) {
		if _, _, err := store.AddSessionsBatch(id+"-sessions", recs); err != nil {
			t.Fatal(err)
		}
		if _, _, err := store.AddPostsBatch(id+"-posts", posts); err != nil {
			t.Fatal(err)
		}
	}
	node := NewServer(&Store{}, opts)
	out := map[string]*fitsFrontEnd{"node": {
		h:    node.Handler(),
		ref:  mount(&ReadPath{src: localSource{node}, news: news, model: cfg.Model}),
		fits: node.reads.fits,
		ingest: func(id string, recs []telemetry.SessionRecord, posts []social.Post) {
			add(node.store, id, recs, posts)
		},
	}}

	// Days are the shard unit, as a coordinator's map splits them.
	var shards []*Server
	var src shardsSource
	for i := 0; i < 2; i++ {
		srv := NewServer(&Store{}, opts)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		shards = append(shards, srv)
		src.shards = append(src.shards, NewClient(ts.URL, nil))
	}
	shardOf := func(d timeline.Day) int { return int(uint(d) % uint(len(shards))) }
	coord := NewReadPath(src, nil, news, cfg.Model)
	out["coordinator"] = &fitsFrontEnd{
		h:    mount(coord),
		ref:  mount(&ReadPath{src: src, news: news, model: cfg.Model}),
		fits: coord.fits,
		ingest: func(id string, recs []telemetry.SessionRecord, posts []social.Post) {
			split := make([][]telemetry.SessionRecord, len(shards))
			for _, r := range recs {
				i := shardOf(timeline.DayOf(r.Start))
				split[i] = append(split[i], r)
			}
			splitPosts := make([][]social.Post, len(shards))
			for _, p := range posts {
				splitPosts[shardOf(p.Day)] = append(splitPosts[shardOf(p.Day)], p)
			}
			for i, srv := range shards {
				add(srv.store, id, split[i], splitPosts[i])
			}
		},
	}
	for _, fe := range out {
		fe.ingest("preload", recs, posts)
	}
	return out
}

// serveBody is a handler's answer to a GET, status and body.
func serveBody(h http.Handler, path string) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes())
}

// TestRatedFitsOncePerSet: on a node and on a coordinator, the read path fits
// the MOS predictor and the predictor evaluation once per distinct rated
// subsequence. A dashboard refresh after a rating-free batch fits nothing,
// one after a batch with a rating fits each once — however many readers ask
// at once — and every answer is the bytes the same render gives with no
// memo.
func TestRatedFitsOncePerSet(t *testing.T) {
	recs := viewSessions(t, 11, 1600)
	cfg, _ := goldenSocialConfig()
	corpus, err := social.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var posts []social.Post
	for i := 0; i < len(corpus.Posts); i += 20 {
		posts = append(posts, corpus.Posts[i])
	}
	preload, tail := recs[:1500], recs[1500:]
	half := len(posts) / 2
	// batch returns the next 20 tail sessions, every one unrated or only the
	// first rated, and the next 10 posts.
	next := 0
	batch := func(rated bool) ([]telemetry.SessionRecord, []social.Post) {
		b := append([]telemetry.SessionRecord(nil), tail[20*next:20*next+20]...)
		for i := range b {
			b[i].Rated, b[i].Rating = false, 0
		}
		if rated {
			b[0].Rated, b[0].Rating = true, 4
		}
		ps := posts[half+10*next : half+10*next+10]
		next++
		return b, ps
	}
	fes := fitsFrontEnds(t, preload, posts[:half])
	isp := recs[0].ISP

	refresh := func(name string, fe *fitsFrontEnd, step string) {
		t.Helper()
		for _, path := range dashboardReads(isp) {
			if got, want := serveBody(fe.h, path), serveBody(fe.ref, path); got != want {
				t.Errorf("%s, %s: %s answered %.200s, with no memo %.200s", name, step, path, got, want)
			}
		}
	}
	fitsOf := func(fe *fitsFrontEnd) [2]uint64 { return [2]uint64{fe.fits.ridge.Load(), fe.fits.tree.Load()} }
	expect := func(name, step string, before, want [2]uint64, fe *fitsFrontEnd) {
		t.Helper()
		after := fitsOf(fe)
		if got := [2]uint64{after[0] - before[0], after[1] - before[1]}; got != want {
			t.Errorf("%s, %s: %d ridge fits and %d tree fits, want %d and %d", name, step, got[0], got[1], want[0], want[1])
		}
	}

	for round := 0; round < 2; round++ {
		free, freePosts := batch(false)
		rated, ratedPosts := batch(true)
		for name, fe := range fes {
			if round == 0 {
				refresh(name, fe, "preload")
			}
			before := fitsOf(fe)
			fe.ingest(fmt.Sprintf("free-%d", round), free, freePosts)
			refresh(name, fe, "rating-free batch")
			expect(name, "rating-free batch", before, [2]uint64{0, 0}, fe)

			before = fitsOf(fe)
			fe.ingest(fmt.Sprintf("rated-%d", round), rated, ratedPosts)
			refresh(name, fe, "rated batch")
			expect(name, "rated batch", before, [2]uint64{1, 1}, fe)
		}
	}

	// Concurrent cold readers after a rating: the first asker of each
	// product fits it, and the others wait for it.
	rated, ratedPosts := batch(true)
	for name, fe := range fes {
		fe.ingest("rated-concurrent", rated, ratedPosts)
		before := fitsOf(fe)
		paths := dashboardReads(isp)
		answers := make([]string, 8)
		var wg sync.WaitGroup
		for r := range answers {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				answers[r] = serveBody(fe.h, paths[[]int{0, 3, 10, 12}[r%4]])
			}(r)
		}
		wg.Wait()
		expect(name, "concurrent readers", before, [2]uint64{1, 1}, fe)
		for r, got := range answers {
			if want := serveBody(fe.ref, paths[[]int{0, 3, 10, 12}[r%4]]); got != want {
				t.Errorf("%s, concurrent reader %d: %.200s, with no memo %.200s", name, r, got, want)
			}
		}
	}
}

// TestRatedFitsKey: the memo's key is the exact rated input. Equal contents
// in another array hit; a part more, a record more, or any one field changed
// — a float from +0 to -0 included — is a new set.
func TestRatedFitsKey(t *testing.T) {
	rated := ratedOnly(viewSessions(t, 12, 600))
	rated[3].CamOnPct = 0
	clone := func() []telemetry.SessionRecord { return append([]telemetry.SessionRecord(nil), rated...) }
	m := new(ratedFits)
	held, total := m.of([]*ShardPartials{{Rated: rated, Sessions: 600}, nil})
	if total != 600 || len(held.rated) != len(rated) {
		t.Fatalf("lookup: %d rated of %d sessions", len(held.rated), total)
	}
	lookup := func(parts ...[]telemetry.SessionRecord) *ratedSet {
		bundles := make([]*ShardPartials, len(parts))
		for i, p := range parts {
			bundles[i] = &ShardPartials{Rated: p}
		}
		set, _ := m.of(bundles)
		return set
	}
	if lookup(rated) != held || lookup(clone()) != held {
		t.Fatal("the same rated rows, or equal ones in another array, missed the memo")
	}
	negZero := clone()
	negZero[3].CamOnPct = math.Copysign(0, -1)
	for name, parts := range map[string][][]telemetry.SessionRecord{
		"a field from +0 to -0": {negZero},
		"a record less":         {rated[:len(rated)-1]},
		"another split":         {rated[:1], rated[1:]},
	} {
		held := lookup(rated)
		if lookup(parts...) == held {
			t.Errorf("%s hit the memo", name)
		}
	}

	// sameRecord sees every field of a session, nested ones included.
	var perturb func(v reflect.Value, path string)
	perturb = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			if f.Kind() == reflect.Struct && f.Type() != reflect.TypeOf(time.Time{}) {
				perturb(f, name+".")
				continue
			}
			old := reflect.ValueOf(f.Interface())
			switch f.Kind() {
			case reflect.Float64:
				f.SetFloat(math.Copysign(0, -1))
			case reflect.Int:
				f.SetInt(f.Int() + 1)
			case reflect.Uint64:
				f.SetUint(f.Uint() + 1)
			case reflect.String:
				f.SetString(f.String() + "x")
			case reflect.Bool:
				f.SetBool(!f.Bool())
			default:
				if f.Type() != reflect.TypeOf(time.Time{}) {
					t.Fatalf("field %s: kind %v not covered", name, f.Kind())
				}
				f.Set(reflect.ValueOf(f.Interface().(time.Time).Add(time.Nanosecond)))
			}
			if sameRecord(rated[3], negZero[3]) {
				t.Errorf("field %s changed, sameRecord still true", name)
			}
			f.Set(old)
		}
	}
	negZero[3].CamOnPct = 0
	if !sameRecord(rated[3], negZero[3]) {
		t.Fatal("a record differs from its copy")
	}
	moved := negZero[3]
	moved.Start = moved.Start.In(time.FixedZone("east", 3600))
	if !sameRecord(rated[3], moved) {
		t.Error("the same start instant in another zone is another record")
	}
	perturb(reflect.ValueOf(&negZero[3]).Elem(), "")
}
