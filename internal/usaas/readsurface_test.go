package usaas_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"usersignals/internal/cluster"
	"usersignals/internal/conference"
	"usersignals/internal/social"
	"usersignals/internal/usaas"
)

// surface is a node and a coordinator over two shards that hold the node's
// sessions and posts between them, each with the same constellation model
// and news index.
type surface struct {
	node, coord http.Handler
	stores      []*usaas.Store // the node's, then each shard's
	isp         string         // an ISP the sessions name
}

func newSurface(tb testing.TB) *surface {
	tb.Helper()
	opts := conference.Defaults(7, 600)
	opts.SurveyRate = 0.08
	g, err := conference.New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	recs, err := g.GenerateAll()
	if err != nil {
		tb.Fatal(err)
	}
	cfg, news := usaas.GoldenSocialConfig()
	corpus, err := social.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sopts := usaas.ServerOptions{Model: cfg.Model, News: news}
	sf := &surface{stores: []*usaas.Store{{}}, isp: recs[0].ISP}
	m := cluster.Map{Version: 1}
	for _, name := range []string{"s0", "s1"} {
		store := &usaas.Store{}
		ts := httptest.NewServer(usaas.NewServer(store, sopts).Handler())
		tb.Cleanup(ts.Close)
		sf.stores = append(sf.stores, store)
		m.Shards = append(m.Shards, cluster.Shard{Name: name, Endpoints: []string{ts.URL}})
	}
	sf.node = usaas.NewServer(sf.stores[0], sopts).Handler()
	sf.coord = cluster.New(m, cluster.Options{Model: cfg.Model, News: news}).Handler()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, h := range []http.Handler{sf.node, sf.coord} {
		ts := httptest.NewServer(h)
		c := usaas.NewClientWithOptions(ts.URL, usaas.ClientOptions{})
		_, err := c.IngestSessionsBatch(ctx, "sessions", recs)
		if err == nil {
			_, err = c.IngestPostsBatch(ctx, "posts", corpus.Posts)
		}
		ts.Close()
		if err != nil {
			tb.Fatal(err)
		}
	}
	// Every endpoint renders an answer from the data: the fuzz reaches the
	// renders, not only the refusals.
	valid := "metric=latency-mean-ms&engagement=presence&isp=" + url.QueryEscape(sf.isp)
	for _, path := range readPaths {
		if rec := get(sf.node, path, valid); rec.Code != http.StatusOK {
			tb.Fatalf("%s?%s: %d %.200s", path, valid, rec.Code, rec.Body)
		}
	}
	return sf
}

// get serves one GET of path with the raw query on h.
func get(h http.Handler, path, raw string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodGet, path, nil)
	r.URL.RawQuery = raw
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

// readPaths are the 13 read endpoints.
var readPaths = []string{
	"/v1/insights/engagement", "/v1/insights/mos", "/v1/insights/sentiment", "/v1/insights/peaks",
	"/v1/insights/outages", "/v1/insights/speeds", "/v1/insights/trends", "/v1/query/experience",
	"/v1/insights/confounders", "/v1/advice/traffic-engineering", "/v1/advice/deployment",
	"/v1/report", "/v1/insights/incidents",
}

// FuzzReadSurface sends one query string to every read endpoint of a node
// and of a coordinator over two shards that hold the node's data between
// them. Both answer the same status and bytes; a 200 carries a JSON body
// (plain text for the text report), never an empty or invalid one; a 400
// names the query parameter it refuses; a 4xx registers no view on the node
// or either shard; and no store ever holds more than MaxEngViews views of a
// kind.
func FuzzReadSurface(f *testing.F) {
	sf := newSurface(f)
	for _, seed := range []string{
		"",
		"metric=latency-mean-ms&engagement=presence",
		"metric=loss-mean-pct&engagement=cam-on&lo=0&hi=5&bins=6&isp=" + url.QueryEscape(sf.isp),
		"metric=jitter-mean-ms&engagement=mic-on&lo=-1e308&hi=1e308",
		"metric=latency-mean-ms&engagement=presence&lo=-0&hi=1e-300&bins=1000",
		"isp=" + url.QueryEscape(sf.isp) + "&engagement=mic-on",
		"isp=nobody&k=50&threshold=3&format=text",
		"engagement=presence&min_drop=NaN",
		"threshold=-5&sats=-5&target=NaN&max=64",
		"from=100&horizon=3760&bins=0&k=0",
		"bins=%zz&k=1e3;x=y",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		for _, path := range readPaths {
			before := make([][3][]string, len(sf.stores))
			for i, s := range sf.stores {
				before[i] = s.RegisteredViews()
			}
			n, c := get(sf.node, path, raw), get(sf.coord, path, raw)
			if n.Code != c.Code || n.Body.String() != c.Body.String() {
				t.Fatalf("%s?%s: node %d %.300s, coordinator %d %.300s", path, raw, n.Code, n.Body, c.Code, c.Body)
			}
			body := n.Body.Bytes()
			text := strings.HasPrefix(n.Header().Get("Content-Type"), "text/plain")
			if n.Code == http.StatusOK && (len(body) == 0 || !text && !json.Valid(body)) {
				t.Fatalf("%s?%s: a 200 with the body %q", path, raw, body)
			}
			if n.Code == http.StatusBadRequest && !strings.HasPrefix(string(body), `{"error":"query parameter \"`) {
				t.Fatalf("%s?%s: a 400 naming no parameter: %s", path, raw, body)
			}
			for i, s := range sf.stores {
				views := s.RegisteredViews()
				if n.Code >= 400 && n.Code < 500 && !reflect.DeepEqual(views, before[i]) {
					t.Fatalf("%s?%s: a %d registered views on store %d: %v, before %v", path, raw, n.Code, i, views, before[i])
				}
				for _, keys := range views {
					if len(keys) > usaas.MaxEngViews {
						t.Fatalf("%s?%s: store %d holds %d views of a kind", path, raw, i, len(keys))
					}
				}
			}
		}
	})
}
