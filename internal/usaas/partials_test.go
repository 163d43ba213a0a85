package usaas

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"usersignals/internal/social"
	"usersignals/internal/stats"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

// sinceFixture is a store fed in stages, with the state tag and the full
// answer of every keyed section recorded at every state it passed through.
type sinceFixture struct {
	srv  *Server
	isp  string
	tags []string // tags[i]: the tag after step i (step 0: the empty store)
	// full[i]: the full /v1/partials body of sinceSections after step i.
	full []string
	// sessDays[i] and postDays[i]: the days step i brought sessions and
	// posts to.
	sessDays, postDays []map[timeline.Day]bool
}

// sinceSections is the query of every keyed section, both families.
func (fx *sinceFixture) sinceSections() string {
	return "sessions,daily,dose,drops,confounders,experience,social,speeds&metric=loss-mean-pct&engagement=mic-on&lo=0&hi=5&bins=6&isp=" + url.QueryEscape(fx.isp)
}

// partialsGet asks the server's handler directly for /v1/partials with the
// given sections (and any parameters after them) and since=, and returns the
// status, the ETag and the body.
func partialsGet(srv *Server, sections, since string, header http.Header) (int, string, string) {
	target := "/v1/partials?sections=" + sections
	if since != "" {
		target += "&since=" + url.QueryEscape(since)
	}
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for k, vs := range header {
		req.Header[k] = vs
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Header().Get("ETag"), rec.Body.String()
}

// newSinceFixture ingests sessions and posts in ragged stages: session-only
// batches between post batches (tag moves that change no post day, and post
// batches that change no session day) and one post held back from the first
// batch, delivered after later posts of its day were folded, so that day
// folds again.
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
	fx := &sinceFixture{srv: NewServer(&Store{}, ServerOptions{}), isp: recs[0].ISP}
	record := func(sessions []telemetry.SessionRecord, posts []social.Post) {
		_, tag, _ := partialsGet(fx.srv, "daily", "", nil)
		_, _, body := partialsGet(fx.srv, fx.sinceSections(), "", nil)
		sd, pd := map[timeline.Day]bool{}, map[timeline.Day]bool{}
		for _, r := range sessions {
			sd[timeline.DayOf(r.Start)] = true
		}
		for _, p := range posts {
			pd[p.Day] = true
		}
		fx.tags, fx.full = append(fx.tags, tag), append(fx.full, body)
		fx.sessDays, fx.postDays = append(fx.sessDays, sd), append(fx.postDays, pd)
	}
	record(nil, nil)
	steps := []struct {
		sessions []telemetry.SessionRecord
		posts    []social.Post
	}{
		{sessions: recs[:100]},
		{posts: first},
		{posts: posts[120:200]},
		{sessions: recs[100:200]},
		{posts: posts[hold : hold+1]},
		{sessions: recs[200:220]},
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
		record(st.sessions, st.posts)
	}
	return fx
}

// gens reads a state tag's session and post generations.
func gens(t testing.TB, tag string) (sessGen, postGen uint64) {
	t.Helper()
	f := strings.Split(strings.Trim(tag, `"`), ".")
	sessGen, err1 := strconv.ParseUint(f[2], 10, 64)
	postGen, err2 := strconv.ParseUint(f[3], 10, 64)
	if len(f) != 4 || err1 != nil || err2 != nil {
		t.Fatalf("tag %s is not protocol.nonce.sessGen.postGen", tag)
	}
	return sessGen, postGen
}

// baseAt is the full answer a receiver holds at session generation sessGen
// and post generation postGen: each family's sections as they stood at the
// step that reached its generation. ok is false for a generation no step
// reached.
func (fx *sinceFixture) baseAt(t testing.TB, sessGen, postGen uint64) (base *ShardPartials, ok bool) {
	var sess, post *ShardPartials
	for i, tag := range fx.tags {
		sg, pg := gens(t, tag)
		if sg == sessGen && sess == nil {
			sess = decodePartials(t, fx.full[i])
		}
		if pg == postGen && post == nil {
			post = decodePartials(t, fx.full[i])
		}
	}
	if sess == nil || post == nil {
		return nil, false
	}
	base = &ShardPartials{}
	for _, section := range []string{SectionSessions, SectionDaily, SectionDose, SectionDrops, SectionConfounders, SectionExperience} {
		base.Take(section, sess)
	}
	base.Take(SectionSocial, post)
	base.Take(SectionSpeeds, post)
	return base, true
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

// Element keys of the keyed sections, written apart from the section table
// so that the since= test does not take the keys from the code it checks.
func ratedDay(r *telemetry.SessionRecord) timeline.Day   { return timeline.DayOf(r.Start) }
func engagementDay(d *DayEngagement) timeline.Day        { return d.Day }
func doseDay(d *DoseDayPartial) timeline.Day             { return d.Day }
func confounderDay(d *ConfounderDayPartial) timeline.Day { return d.Day }
func socialPartialDay(d *SocialDayPartial) timeline.Day  { return d.Day }
func speedMonth(m *SpeedMonthPartial) timeline.Month     { return m.Month }
func experienceDay(d *ExperienceDayPartial) timeline.Day { return d.Day }

// elementKeys lists a keyed section's element keys in wire order; a rated run
// lists its day once per session.
func elementKeys[T any, K any](xs []T, key func(*T) K) []K {
	out := []K{}
	for i := range xs {
		out = append(out, key(&xs[i]))
	}
	return out
}

// keep filters xs down to the elements whose key is in the set.
func keep[T any, K comparable](xs []T, key func(*T) K, set map[K]bool) []T {
	out := []T{}
	for i := range xs {
		if set[key(&xs[i])] {
			out = append(out, xs[i])
		}
	}
	return out
}

// TestPartialsSinceShipsChangedDays pins the since= rule: a delta against a
// base this process minted lists, in every keyed section, exactly the
// elements the batches after the base touched — session days (a day's whole
// rated run) by session batch, social days and speed months by post batch, a
// refolded day included, nothing for a base at the current state — with the
// scalars in full; and anything else (malformed, another process's, from
// the future in either family, of another protocol) gets the full answer,
// which is what CollectPartials returns.
func TestPartialsSinceShipsChangedDays(t *testing.T) {
	fx := newSinceFixture(t)
	srv := fx.srv
	cur := len(fx.tags) - 1
	full := fx.full[cur]

	want, err := srv.CollectPartials([]string{SectionSocial, SectionSpeeds}, nil, telemetry.Presence, "")
	if err != nil {
		t.Fatal(err)
	}
	_, _, socialBody := partialsGet(srv, "social,speeds", "", nil)
	if body := string(mustJSON(want)) + "\n"; body != socialBody {
		t.Fatalf("a full answer differs from CollectPartials\nanswer:  %.300s\ncollect: %.300s", socialBody, body)
	}
	if srv.store.refolds == 0 {
		t.Fatal("scenario broken: the held-back post folded no day again")
	}

	now := decodePartials(t, full)
	empty := 0
	for base, tag := range fx.tags {
		sessDays, postDays, months := map[timeline.Day]bool{}, map[timeline.Day]bool{}, map[timeline.Month]bool{}
		for i := base + 1; i < len(fx.tags); i++ {
			for d := range fx.sessDays[i] {
				sessDays[d] = true
			}
			for d := range fx.postDays[i] {
				postDays[d], months[timeline.MonthOf(d)] = true, true
			}
		}
		status, _, body := partialsGet(srv, fx.sinceSections(), tag, nil)
		got := decodePartials(t, body)
		if status != http.StatusOK || got.Since != tag {
			t.Fatalf("since step %d: status %d, since %q; want 200, %q", base, status, got.Since, tag)
		}
		exp := *now.Experience
		exp.Days = keep(now.Experience.Days, experienceDay, sessDays)
		wantDelta := &ShardPartials{
			Sessions:    now.Sessions,
			Rated:       keep(now.Rated, ratedDay, sessDays),
			Daily:       keep(now.Daily, engagementDay, sessDays),
			Dose:        keep(now.Dose, doseDay, sessDays),
			Confounders: keep(now.Confounders, confounderDay, sessDays),
			HavePosts:   now.HavePosts, Posts: now.Posts, WindowFrom: now.WindowFrom, WindowTo: now.WindowTo,
			Social:     keep(now.Social, socialPartialDay, postDays),
			Speeds:     keep(now.Speeds, speedMonth, months),
			Experience: &exp,
			Since:      tag,
		}
		for _, view := range now.Drops {
			wantDelta.Drops = append(wantDelta.Drops, keep(view, doseDay, sessDays))
		}
		if !sameJSON(got, wantDelta) {
			t.Errorf("since step %d: shipped\n rated %v\n daily %v\n dose %v\n confounders %v\n experience %v\n social %v\n speeds %v\nwant\n rated %v\n daily %v\n dose %v\n confounders %v\n experience %v\n social %v\n speeds %v", base,
				elementKeys(got.Rated, ratedDay), elementKeys(got.Daily, engagementDay), elementKeys(got.Dose, doseDay), elementKeys(got.Confounders, confounderDay), elementKeys(got.Experience.Days, experienceDay), elementKeys(got.Social, socialPartialDay), elementKeys(got.Speeds, speedMonth),
				elementKeys(wantDelta.Rated, ratedDay), elementKeys(wantDelta.Daily, engagementDay), elementKeys(wantDelta.Dose, doseDay), elementKeys(wantDelta.Confounders, confounderDay), elementKeys(wantDelta.Experience.Days, experienceDay), elementKeys(wantDelta.Social, socialPartialDay), elementKeys(wantDelta.Speeds, speedMonth))
		}
		if len(sessDays)+len(postDays) == 0 {
			empty++
		}
	}
	if empty != 1 {
		t.Errorf("%d bases gave an empty delta, want exactly the current one", empty)
	}

	parts := strings.Split(strings.Trim(fx.tags[cur], `"`), ".")
	sessGen, postGen := gens(t, fx.tags[cur])
	for name, since := range map[string]string{
		"malformed":      "not-a-tag",
		"empty fields":   `"..."`,
		"foreign":        fmt.Sprintf(`"%s.%s.%s.%s"`, parts[0], "0123456789abcdef", parts[2], parts[3]),
		"future posts":   fmt.Sprintf(`"%s.%s.%s.%d"`, parts[0], parts[1], parts[2], postGen+1),
		"future session": fmt.Sprintf(`"%s.%s.%d.%s"`, parts[0], parts[1], sessGen+1, parts[3]),
		"other protocol": fmt.Sprintf(`"%d.%s.%s.%s"`, PartialsProtocol+1, parts[1], parts[2], parts[3]),
		"negative":       fmt.Sprintf(`"%s.%s.%s.-1"`, parts[0], parts[1], parts[2]),
	} {
		if _, _, body := partialsGet(srv, fx.sinceSections(), since, nil); body != full {
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

	// A session batch moves the tag but folds no post day: a base at the
	// state before it gets an empty social delta, and session sections of
	// exactly the batch's days.
	recs, _ := crashDataset(t, 31)
	late := recs[220:]
	if err := srv.store.AddSessions(late); err != nil {
		t.Fatal(err)
	}
	lateDays := map[timeline.Day]bool{}
	for _, r := range late {
		lateDays[timeline.DayOf(r.Start)] = true
	}
	_, moved, body := partialsGet(srv, "social,daily", fx.tags[cur], nil)
	p := decodePartials(t, body)
	if moved == fx.tags[cur] || p.Since != fx.tags[cur] || len(p.Social) != 0 || len(p.Daily) != len(lateDays) {
		t.Errorf("after a session batch over %d days (tag %s → %s): since %q, %d social days, %d daily days; want an empty social delta", len(lateDays), fx.tags[cur], moved, p.Since, len(p.Social), len(p.Daily))
	}
}

// FuzzPartialsSince: whatever since= says, the shard answers 200 with the
// full answer of every keyed section, or with a delta that, patched onto the
// sections held at the base it names, is the current full answer — and
// whose patched social rows equal a full build of the patched section.
func FuzzPartialsSince(f *testing.F) {
	fx := newSinceFixture(f)
	for _, tag := range fx.tags {
		f.Add(tag)
		f.Add(strings.Trim(tag, `"`))
	}
	f.Add("")
	f.Add(`"3.x.1.1"`)
	f.Add(`"....."`)
	last := fx.full[len(fx.full)-1]
	cur := decodePartials(f, last)
	if _, err := cur.Patch(nil); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, since string) {
		status, _, body := partialsGet(fx.srv, fx.sinceSections(), since, nil)
		if status != http.StatusOK {
			t.Fatalf("since %q: status %d %s", since, status, body)
		}
		got := decodePartials(t, body)
		if got.Since == "" {
			if body != last {
				t.Fatalf("since %q: neither a delta nor the full answer: %.200s", since, body)
			}
			return
		}
		if got.Since != since {
			t.Fatalf("since %q: a delta naming %q", since, got.Since)
		}
		sessGen, postGen := gens(t, since)
		base, ok := fx.baseAt(t, sessGen, postGen)
		if !ok {
			// A tag of this process may pair generations no single state
			// had; each family's sections still patch onto the state that
			// reached its own generation, so only one never reached fails.
			t.Fatalf("since %q: a delta against a generation never held", since)
		}
		delta, err := got.Patch(base)
		if err != nil || !delta {
			t.Fatalf("since %q: patch: delta %v, %v", since, delta, err)
		}
		if !sameJSON(got, cur) || !reflect.DeepEqual(got.SocialRows(), cur.SocialRows()) {
			t.Fatalf("since %q: patched delta differs from the current full answer", since)
		}
		if whole := (&ShardPartials{Social: got.Social}); !reflect.DeepEqual(got.SocialRows(), whole.SocialRows()) {
			t.Fatalf("since %q: the patched social rows differ from a full build of the patched section", since)
		}
	})
}

// TestValidateRejectsMalformedPartials: a shard answer the merge cannot take
// — any keyed section out of order, parallel arrays of unequal length, a
// delta without its base — fails the exchange before anything is patched,
// instead of indexing past an array or silently filling a zero.
func TestValidateRejectsMalformedPartials(t *testing.T) {
	day := func(d timeline.Day, terms int) SocialDayPartial {
		return SocialDayPartial{Day: d, Posts: 1, Terms: make([]string, terms), Weights: make([]float64, 1), Pos: make([]int, 1), Total: make([]int, 1)}
	}
	rated := func(days ...timeline.Day) []telemetry.SessionRecord {
		var out []telemetry.SessionRecord
		for _, d := range days {
			out = append(out, telemetry.SessionRecord{Start: d.Time(), Rated: true})
		}
		return out
	}
	dose := func(days ...timeline.Day) []DoseDayPartial {
		var out []DoseDayPartial
		for _, d := range days {
			out = append(out, DoseDayPartial{Day: d})
		}
		return out
	}
	month := func(m timeline.Month, days, ids, downs int) SpeedMonthPartial {
		return SpeedMonthPartial{Month: m, Days: make([]timeline.Day, days), IDs: make([]uint64, ids), Downs: make([]float64, downs)}
	}
	for name, p := range map[string]*ShardPartials{
		"unequal term arrays":        {Social: []SocialDayPartial{day(3, 2)}},
		"social days out of order":   {Social: []SocialDayPartial{day(4, 1), day(3, 1)}},
		"a repeated social day":      {Social: []SocialDayPartial{day(3, 1), day(3, 1)}},
		"a delta, no base":           {Since: "x", Social: []SocialDayPartial{day(3, 1)}},
		"rated runs out of order":    {Rated: rated(3, 3, 2)},
		"a repeated daily day":       {Daily: []DayEngagement{{Day: 3}, {Day: 3}}},
		"dose days out of order":     {Dose: dose(5, 4)},
		"three drop views":           {Drops: [][]DoseDayPartial{nil, nil, nil}},
		"a drop view out of order":   {Drops: [][]DoseDayPartial{nil, dose(2, 1), nil, nil}},
		"a repeated confounder day":  {Confounders: []ConfounderDayPartial{{Day: 1}, {Day: 1}}},
		"speed months out of order":  {Speeds: []SpeedMonthPartial{month(2, 0, 0, 0), month(1, 0, 0, 0)}},
		"speed days shorter":         {Speeds: []SpeedMonthPartial{month(1, 1, 2, 2)}},
		"speed ids shorter":          {Speeds: []SpeedMonthPartial{month(1, 2, 1, 2)}},
		"experience days repeated":   {Experience: &ExperiencePartial{Days: []ExperienceDayPartial{{Day: 2}, {Day: 2}}}},
		"experience days descending": {Experience: &ExperiencePartial{Days: []ExperienceDayPartial{{Day: 3}, {Day: 2}}}},
	} {
		if _, err := p.Patch(nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := (&ShardPartials{Rated: rated(2, 2, 3), Drops: [][]DoseDayPartial{nil, dose(1, 2), nil, nil}}).Patch(nil); err != nil {
		t.Errorf("well-formed answer refused: %v", err)
	}

	// A requested drops or experience section the answer leaves out fails
	// the exchange, full or delta, instead of merging without the shard's
	// drop views or its experience counts; with the payload, both patch.
	held := &ShardPartials{}
	held.Take(SectionDrops, &ShardPartials{Drops: [][]DoseDayPartial{dose(1), nil, nil, nil}})
	held.Take(SectionExperience, &ShardPartials{Experience: &ExperiencePartial{Sessions: 1, Days: []ExperienceDayPartial{{Day: 1}}}})
	for _, section := range []string{SectionDrops, SectionExperience} {
		for kind, since := range map[string]string{"full": "", "delta": "x"} {
			p := &ShardPartials{}
			p.Take(section, &ShardPartials{Sessions: 5, Since: since})
			if _, err := p.Patch(held); err == nil {
				t.Errorf("a %s answer without its %s section: accepted", kind, section)
			}
			p = &ShardPartials{}
			p.Take(section, &ShardPartials{Sessions: 5, Since: since, Drops: make([][]DoseDayPartial, 4), Experience: &ExperiencePartial{}})
			if _, err := p.Patch(held); err != nil {
				t.Errorf("a %s answer with its %s section refused: %v", kind, section, err)
			}
		}
	}

	te := func(d timeline.Day, affected, lift int) TEDayPartial {
		return TEDayPartial{Day: d, Affected: make([]int, affected), Lift: make([]float64, lift)}
	}
	for name, m := range map[string]*ModelPartials{
		"short affected":          {TE: []TEDayPartial{te(1, teSlots-1, teSlots)}},
		"short lift":              {TE: []TEDayPartial{te(1, teSlots, 0)}},
		"te days out of order":    {TE: []TEDayPartial{te(2, teSlots, teSlots), te(1, teSlots, teSlots)}},
		"predicted days repeated": {Predicted: []DayOnlinePartial{{Day: 1}, {Day: 1}}},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := (&ModelPartials{TE: []TEDayPartial{te(1, teSlots, teSlots), te(2, teSlots, teSlots)}}).Validate(); err != nil {
		t.Errorf("well-formed model answer refused: %v", err)
	}
}

// TestPartialsSectionTable: the section table is the one declaration of
// every /v1/partials section. Every Section* constant has exactly one row;
// every row's parameters survive PartialsQuery → parsePartials, and a row
// that takes parameters refuses a request without them; and Take from a
// fully populated answer copies every wire field of ShardPartials (but the
// session count and the delta mark every answer carries) through exactly
// one row — the corpus scalars through each post row — so a new wire field
// no row takes fails here.
func TestPartialsSectionTable(t *testing.T) {
	if len(partialsSections) > 32 {
		t.Fatalf("%d sections overflow ShardPartials.took", len(partialsSections))
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := map[string]string{} // section name → constant
	for _, f := range pkgs["usaas"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			for i := 0; ok && i < min(len(spec.Names), len(spec.Values)); i++ {
				if lit, isLit := spec.Values[i].(*ast.BasicLit); isLit && strings.HasPrefix(spec.Names[i].Name, "Section") {
					v, _ := strconv.Unquote(lit.Value)
					consts[v] = spec.Names[i].Name
				}
			}
			return true
		})
	}
	rows := map[string]int{}
	for _, sec := range partialsSections {
		rows[sec.name]++
		if consts[sec.name] == "" {
			t.Errorf("row %q has no Section* constant", sec.name)
		}
	}
	for v, name := range consts {
		if rows[v] != 1 {
			t.Errorf("%s (%q) has %d rows, want 1", name, v, rows[v])
		}
	}

	dose := &engViewKey{metric: telemetry.LossMean, eng: telemetry.MicOn, b: stats.NewBinner(0, 5, 6), isp: "ISP A"}
	params := map[string]struct {
		q    url.Values
		want partialsRequest
	}{
		SectionDose:        {dose.params(), partialsRequest{dose: dose}},
		SectionConfounders: {url.Values{"engagement": {"cam-on"}}, partialsRequest{confEng: telemetry.CamOn}},
		SectionExperience:  {url.Values{"isp": {"ISP A"}}, partialsRequest{isp: "ISP A"}},
	}
	for _, sec := range partialsSections {
		tc, ok := params[sec.name]
		if sec.name != SectionConfounders {
			tc.want.confEng = telemetry.Presence // the default
		}
		if sec.parse != nil && !ok {
			t.Errorf("row %q parses parameters this test has no sample of", sec.name)
		}
		tc.want.sections = []string{sec.name}
		req, err := parsePartials(PartialsQuery([]Section{{sec.name, tc.q}}))
		if err != nil || !reflect.DeepEqual(req, tc.want) {
			t.Errorf("row %q: parsed %+v, %v; want %+v", sec.name, req, err, tc.want)
		}
		if _, err := parsePartials(PartialsQuery([]Section{{Name: sec.name}})); (err != nil) != (sec.parse != nil) {
			t.Errorf("row %q without parameters: %v", sec.name, err)
		}
	}

	src := &ShardPartials{}
	wire := reflect.ValueOf(src).Elem()
	for i := 0; i < wire.NumField(); i++ {
		if f := wire.Field(i); f.CanSet() {
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int:
				f.SetInt(7)
			case reflect.String:
				f.SetString("x")
			case reflect.Slice:
				f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			case reflect.Pointer:
				f.Set(reflect.New(f.Type().Elem()))
			default:
				t.Fatalf("ShardPartials.%s: a %s this test cannot populate", wire.Type().Field(i).Name, f.Kind())
			}
		}
	}
	takenBy := map[string][]string{} // wire field → the rows whose Take copies it
	for _, sec := range partialsSections {
		p := &ShardPartials{}
		p.Take(sec.name, src)
		got := reflect.ValueOf(p).Elem()
		for i := 0; i < got.NumField(); i++ {
			if name := got.Type().Field(i).Name; got.Field(i).CanSet() && !got.Field(i).IsZero() && name != "Sessions" && name != "Since" {
				takenBy[name] = append(takenBy[name], sec.name)
			}
		}
	}
	postScalars := map[string]bool{"HavePosts": true, "Posts": true, "WindowFrom": true, "WindowTo": true}
	var postRows []string
	for _, sec := range partialsSections {
		if sec.post {
			postRows = append(postRows, sec.name)
		}
	}
	for i := 0; i < wire.NumField(); i++ {
		name := wire.Type().Field(i).Name
		if !wire.Field(i).CanSet() || name == "Sessions" || name == "Since" {
			continue
		}
		switch by := takenBy[name]; {
		case postScalars[name]:
			if !reflect.DeepEqual(by, postRows) {
				t.Errorf("ShardPartials.%s is taken by %v, want the post rows %v", name, by, postRows)
			}
		case len(by) != 1:
			t.Errorf("ShardPartials.%s is taken by %v, want exactly one row", name, by)
		}
	}
}
