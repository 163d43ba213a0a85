package usaas

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"usersignals/internal/conference"
	"usersignals/internal/leo"
	"usersignals/internal/newswire"
	"usersignals/internal/social"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// The partials protocol's golden vectors: seed-fixed /v1/partials and
// /v1/partials/model exchanges of one small store, in
// testdata/partials/v<PartialsProtocol>/, plus the answers that node serves
// on its read endpoints (answers/). A change to the wire shows up as a diff
// here — regenerate with `go test -run TestGoldenPartialsVectors -update
// ./internal/usaas` and bump PartialsProtocol with it.

var updateGolden = flag.Bool("update", false, "rewrite the golden partials vectors")

// goldenNonce pins the boot nonce, the only unseeded part of a state tag.
const goldenNonce = "0123456789abcdef"

var goldenDir = filepath.Join("testdata", "partials", "v"+strconv.Itoa(PartialsProtocol))

// goldenFixture is the vectors' store, served under the pinned nonce with the
// result cache off, and what the exchanges need to know about it.
type goldenFixture struct {
	srv     *Server
	isp     string
	baseTag string // the tag the social-base vector was answered under
	// exchanges holds every vector, by name, in wire form.
	exchanges map[string][]byte
}

// goldenReads are the read endpoints whose node answers the vectors carry.
func goldenReads(isp string) [][2]string {
	return [][2]string{
		{"report", "/v1/report"},
		{"report-text", "/v1/report?format=text"},
		{"engagement", "/v1/insights/engagement?metric=latency-mean-ms&engagement=presence&lo=0&hi=300&bins=8"},
		{"mos", "/v1/insights/mos"},
		{"sentiment", "/v1/insights/sentiment"},
		{"peaks", "/v1/insights/peaks"},
		{"outages", "/v1/insights/outages?threshold=2"},
		{"speeds", "/v1/insights/speeds"},
		{"trends", "/v1/insights/trends"},
		{"confounders", "/v1/insights/confounders?engagement=presence"},
		{"traffic-engineering", "/v1/advice/traffic-engineering"},
		{"deployment", "/v1/advice/deployment"},
		{"incidents", "/v1/insights/incidents?engagement=presence"},
		{"experience", "/v1/query/experience?isp=" + isp},
	}
}

// newGoldenFixture feeds a fresh store the fixed multiset in two stages and
// records every exchange: the social base after the first stage, the rest
// after the second.
func newGoldenFixture(t *testing.T) *goldenFixture {
	t.Helper()
	copts := conference.Defaults(33, 90)
	copts.SurveyRate = 0.2
	g, err := conference.New(copts)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := g.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	cfg, news := goldenSocialConfig()
	corpus, err := social.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var posts []social.Post // one in twenty: a few posts on most days of the window
	for i := 0; i < len(corpus.Posts); i += 20 {
		posts = append(posts, corpus.Posts[i])
	}

	srv := NewServer(&Store{}, ServerOptions{News: news, Model: cfg.Model, ResultCacheSize: -1})
	srv.boot = goldenNonce
	fx := &goldenFixture{srv: srv, isp: recs[0].ISP, exchanges: map[string][]byte{}}
	stage := func(id string, recs []telemetry.SessionRecord, posts []social.Post) {
		if _, _, err := srv.store.AddSessionsBatch(id+"-sessions", recs); err != nil {
			t.Fatal(err)
		}
		if _, _, err := srv.store.AddPostsBatch(id+"-posts", posts); err != nil {
			t.Fatal(err)
		}
	}
	stage("golden-1", recs[:len(recs)/2], posts[:2*len(posts)/3])
	fx.baseTag = fx.exchange(t, "social-base", http.MethodGet, "/v1/partials?sections=social", nil, nil)
	stage("golden-2", recs[len(recs)/2:], posts[2*len(posts)/3:])

	for _, ex := range [][2]string{
		{"sessions", "sections=sessions"},
		{"daily", "sections=daily"},
		{"dose", "sections=dose&metric=latency-mean-ms&engagement=presence&lo=0&hi=300&bins=8"},
		{"drops", "sections=drops"},
		{"confounders", "sections=confounders&engagement=presence"},
		{"social", "sections=social"},
		{"social-since", "sections=social&since=" + fx.baseTag},
		{"speeds", "sections=speeds"},
		{"experience", "sections=experience&isp=" + fx.isp},
	} {
		fx.exchange(t, ex[0], http.MethodGet, "/v1/partials?"+ex[1], nil, nil)
	}
	rated, _ := srv.store.RatedSessions()
	p, err := TrainMOSPredictor(rated, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]ModelPartialsRequest{
		"model-te":         {Model: *p.Model(), Sections: []string{ModelSectionTE}},
		"model-experience": {Model: *p.Model(), ISP: fx.isp, Sections: []string{ModelSectionExperience}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		fx.exchange(t, name, http.MethodPost, "/v1/partials/model", body, nil)
	}
	tag := fx.exchange(t, "not-modified", http.MethodGet, "/v1/partials?sections=daily", nil, http.Header{"If-None-Match": {""}})
	if tag == fx.baseTag {
		t.Fatal("scenario broken: the second stage left the tag where it was")
	}
	for _, rd := range goldenReads(fx.isp) {
		fx.read(rd[0], rd[1])
	}
	return fx
}

// goldenSocialConfig is the vectors' post corpus configuration and the news
// index the node annotates peaks with.
func goldenSocialConfig() (social.Config, *newswire.Index) {
	cfg := social.DefaultConfig(33)
	cfg.Window = timeline.Range{From: timeline.Date(2022, 3, 1), To: timeline.Date(2022, 4, 30)}
	cfg.Outages = leo.AllOutages(33, cfg.Window, 1.5)
	return cfg, newswire.Build(cfg.Model.Launches(), cfg.Outages, cfg.Milestones)
}

// exchange serves one partials request the way a coordinator sends it and
// records it under name; it returns the answer's tag. An If-None-Match
// header given empty is filled with the current tag.
func (fx *goldenFixture) exchange(t *testing.T, name, method, target string, body []byte, header http.Header) string {
	t.Helper()
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	req.Header.Set(PartialsProtocolHeader, partialsProtocol)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range header {
		req.Header[k] = vs
		if k == "If-None-Match" {
			req.Header.Set(k, fx.srv.stateTag())
		}
	}
	rec := httptest.NewRecorder()
	fx.srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK && rec.Code != http.StatusNotModified {
		t.Fatalf("%s: status %d: %.300s", name, rec.Code, rec.Body.Bytes())
	}
	fx.exchanges[name+".http"] = dumpExchange(req, body, rec, "Content-Type", "Etag", PartialsProtocolHeader)
	return rec.Header().Get("ETag")
}

// read records the node's answer on one read endpoint.
func (fx *goldenFixture) read(name, target string) {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rec := httptest.NewRecorder()
	fx.srv.Handler().ServeHTTP(rec, req)
	fx.exchanges[filepath.Join("answers", name+".http")] = dumpExchange(req, nil, rec, "Content-Type")
}

// dumpExchange renders a request and its answer in HTTP/1.1 wire form, LF
// line ends, the request's headers and the answer's pinned ones sorted.
func dumpExchange(req *http.Request, body []byte, rec *httptest.ResponseRecorder, pinned ...string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\nHost: shard\n", req.Method, req.URL.RequestURI())
	if len(body) > 0 {
		req.Header.Set("Content-Length", strconv.Itoa(len(body)))
	}
	writeHeaders(&b, req.Header)
	b.WriteString("\n")
	b.Write(body)
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\n", rec.Code, http.StatusText(rec.Code))
	h := http.Header{}
	for _, k := range pinned {
		if v := rec.Header().Get(k); v != "" {
			h.Set(k, v)
		}
	}
	if rec.Body.Len() > 0 {
		h.Set("Content-Length", strconv.Itoa(rec.Body.Len()))
	}
	writeHeaders(&b, h)
	b.WriteString("\n")
	b.Write(rec.Body.Bytes())
	return b.Bytes()
}

func writeHeaders(w io.Writer, h http.Header) {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s: %s\n", k, h.Get(k))
	}
}

// readExchange parses one vector file: the request, its body, and the
// answer with its body read.
func readExchange(t *testing.T, data []byte) (*http.Request, []byte, *http.Response, []byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(data))
	req, err := http.ReadRequest(br)
	if err != nil {
		t.Fatal(err)
	}
	reqBody, err := io.ReadAll(req.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		t.Fatal(err)
	}
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rest, _ := io.ReadAll(br); len(rest) > 0 {
		t.Fatalf("%d bytes after the answer", len(rest))
	}
	return req, reqBody, resp, respBody
}

// goldenFiles reads every committed vector, by path under goldenDir.
func goldenFiles(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(goldenDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(goldenDir, path)
		out[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenPartialsVectors re-derives every vector from the fixed multiset
// and requires the committed bytes: the partials exchanges (every section, a
// full and a since= social answer, both model-phase sections and a 304) and
// the node's answers on its read endpoints.
func TestGoldenPartialsVectors(t *testing.T) {
	fx := newGoldenFixture(t)
	if *updateGolden {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		for name, data := range fx.exchanges {
			path := filepath.Join(goldenDir, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	committed := goldenFiles(t)
	for name, data := range fx.exchanges {
		if !bytes.Equal(committed[name], data) {
			t.Errorf("%s differs from the committed vector\n got: %.400s\nwant: %.400s", name, data, committed[name])
		}
		readExchange(t, data)
	}
	for name := range committed {
		if _, ok := fx.exchanges[name]; !ok {
			t.Errorf("%s is committed but no longer derived", name)
		}
	}
	if !strings.Contains(string(committed["social-since.http"]), `"social_since"`) {
		t.Error("the since= vector is not a delta")
	}
}

// vectorSource answers the read plans from decoded vectors, as the one shard
// that answered them would: phase-one sections by key, and the model phase
// only for the very request the vector recorded.
type vectorSource struct {
	sections map[string]*ShardPartials // by Section.Key()
	models   map[string]vectorModel    // by model-phase section
}

type vectorModel struct {
	req []byte
	out ModelPartials
}

func (vectorSource) Tag() string { return "" }

func (v vectorSource) Gather(_ context.Context, sections []Section) *Gathered {
	b := &ShardPartials{}
	for _, s := range sections {
		p, ok := v.sections[s.Key()]
		if !ok {
			return &Gathered{Bundles: []*ShardPartials{nil}, Failed: []string{"no vector for section " + s.Key()}}
		}
		b.Take(s.Name, p)
	}
	return &Gathered{Bundles: []*ShardPartials{b}, ModelPhase: v.modelPhase}
}

func (v vectorSource) modelPhase(req ModelPartialsRequest) ([]ModelPartials, bool, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	m, ok := v.models[strings.Join(req.Sections, ",")]
	if !ok || !bytes.Equal(body, m.req) {
		return nil, false, fmt.Errorf("no vector for model phase %s", body)
	}
	return []ModelPartials{m.out}, true, nil
}

// decodeStrict decodes an answer body the way a coordinator does.
func decodeStrict(t *testing.T, name string, body []byte, out any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if dec.More() {
		t.Fatalf("%s: more than one value", name)
	}
}

// TestGoldenVectorsMergeThroughPlans decodes the committed vectors strictly,
// merges them through the read plans and requires the node's committed
// answers byte for byte — the wire alone carries everything every read
// endpoint needs. The since= vector patched onto the social base must be the
// full social answer, and the 304 must name the state every final vector
// was answered at.
func TestGoldenVectorsMergeThroughPlans(t *testing.T) {
	src := vectorSource{sections: map[string]*ShardPartials{}, models: map[string]vectorModel{}}
	social := map[string]*ShardPartials{}
	tags := map[string]bool{}
	for name, data := range goldenFiles(t) {
		if strings.HasPrefix(name, "answers") {
			continue
		}
		req, reqBody, resp, body := readExchange(t, data)
		if got := resp.Header.Get(PartialsProtocolHeader); got != partialsProtocol {
			t.Fatalf("%s: answer speaks protocol %q", name, got)
		}
		if name != "social-base.http" {
			tags[resp.Header.Get("ETag")] = true
		}
		switch {
		case resp.StatusCode == http.StatusNotModified:
			if len(body) != 0 || req.Header.Get("If-None-Match") != resp.Header.Get("ETag") {
				t.Errorf("%s: a 304 with %d body bytes, tag %q for If-None-Match %q", name, len(body), resp.Header.Get("ETag"), req.Header.Get("If-None-Match"))
			}
		case req.URL.Path == "/v1/partials/model":
			var mreq ModelPartialsRequest
			decodeStrict(t, name, reqBody, &mreq)
			var mp ModelPartials
			decodeStrict(t, name, body, &mp)
			src.models[strings.Join(mreq.Sections, ",")] = vectorModel{req: reqBody, out: mp}
		default:
			q := req.URL.Query()
			sections := ParseSections(q.Get("sections"))
			q.Del("sections")
			var p ShardPartials
			decodeStrict(t, name, body, &p)
			if len(sections) != 1 || sections[0] != SectionSocial {
				src.sections[Section{Name: sections[0], Params: q}.Key()] = &p
				break
			}
			social[name] = &p
			if q.Get("since") != "" {
				continue
			}
			if _, err := p.PatchSocial(nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if name == "social.http" {
				src.sections[Section{Name: SectionSocial}.Key()] = &p
			}
		}
	}
	if len(tags) != 1 {
		t.Errorf("the final vectors name %d states, want one: %v", len(tags), tags)
	}

	since, base, full := social["social-since.http"], social["social-base.http"], social["social.http"]
	if since == nil || base == nil || full == nil {
		t.Fatal("the social vectors are missing")
	}
	if delta, err := since.PatchSocial(base); err != nil || !delta {
		t.Fatalf("patching the since= vector onto its base: delta %v, %v", delta, err)
	}
	if !sameJSON(since, full) || !reflect.DeepEqual(since.SocialRows(), full.SocialRows()) {
		t.Error("the since= vector patched onto its base is not the full social answer")
	}

	cfg, news := goldenSocialConfig()
	mux := http.NewServeMux()
	NewReadPath(src, nil, news, cfg.Model).Mount(mux)
	answers := 0
	for name, data := range goldenFiles(t) {
		if !strings.HasPrefix(name, "answers") {
			continue
		}
		answers++
		req, _, want, wantBody := readExchange(t, data)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, req.URL.RequestURI(), nil))
		if rec.Code != want.StatusCode || rec.Header().Get("Content-Type") != want.Header.Get("Content-Type") || !bytes.Equal(rec.Body.Bytes(), wantBody) {
			t.Errorf("%s: merged from the vectors (%d, %.300s), the node answered (%d, %.300s)", name, rec.Code, rec.Body.Bytes(), want.StatusCode, wantBody)
		}
	}
	if answers != len(readEndpoints)+1 {
		t.Errorf("%d answers for %d read endpoints (and the text report)", answers, len(readEndpoints))
	}
}
