package social

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"usersignals/internal/leo"
	"usersignals/internal/nlp"
	"usersignals/internal/ocr"
	"usersignals/internal/timeline"
)

func testCorpus(t *testing.T, seed uint64) *Corpus {
	t.Helper()
	c, err := Generate(DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCorpusStatistics(t *testing.T) {
	c := testCorpus(t, 1)
	posts, upvotes, comments := c.WeeklyAverages()
	// §4.1: 372 posts, 8190 upvotes, 5702 comments per week.
	if posts < 300 || posts > 470 {
		t.Fatalf("posts/week = %v, want ~372", posts)
	}
	if upvotes < 5000 || upvotes > 13000 {
		t.Fatalf("upvotes/week = %v, want ~8190", upvotes)
	}
	if comments < 3500 || comments > 9500 {
		t.Fatalf("comments/week = %v, want ~5702", comments)
	}
}

func TestSpeedTestVolume(t *testing.T) {
	c := testCorpus(t, 2)
	n := 0
	for i := range c.Posts {
		if c.Posts[i].TruthKind == KindSpeedTest {
			n++
			if c.Posts[i].Screenshot == nil || c.Posts[i].TruthReport == nil {
				t.Fatal("speed-test post missing screenshot or truth")
			}
		} else if c.Posts[i].Screenshot != nil {
			t.Fatal("non-speedtest post has a screenshot")
		}
	}
	// §4.2: ~1750 shared reports over the two years.
	if n < 1400 || n > 2100 {
		t.Fatalf("speed-test posts = %d, want ~1750", n)
	}
}

func TestDeterminism(t *testing.T) {
	a := testCorpus(t, 7)
	b := testCorpus(t, 7)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Posts {
		pa, pb := a.Posts[i], b.Posts[i]
		if pa.Text() != pb.Text() || pa.ThreadText() != pb.ThreadText() {
			t.Fatalf("post %d text differs", i)
		}
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("post %d differs", i)
		}
	}
}

func TestCorpusIndex(t *testing.T) {
	c := testCorpus(t, 3)
	d := timeline.Date(2022, time.March, 10)
	total := 0
	for _, p := range c.OnDay(d) {
		if p.Day != d {
			t.Fatalf("OnDay returned post from %v", p.Day)
		}
		total++
	}
	if total == 0 {
		t.Fatal("no posts on an ordinary day")
	}
	// Posts sorted by day.
	for i := 1; i < len(c.Posts); i++ {
		if c.Posts[i].Day < c.Posts[i-1].Day {
			t.Fatal("posts not sorted by day")
		}
	}
}

// TestNewCorpusLeavesCallerSliceAlone: a corpus built over unsorted posts is
// in corpus order, and the caller's slice is exactly as it was — callers
// (a store, in particular) keep indices and order of their own.
func TestNewCorpusLeavesCallerSliceAlone(t *testing.T) {
	posts := []Post{
		{ID: 9, Day: 3}, {ID: 2, Day: 3}, {ID: 5, Day: 1}, {ID: 2, Day: 3, Title: "second"}, {ID: 1, Day: 2},
	}
	given := append([]Post(nil), posts...)
	c := NewCorpus(timeline.Range{From: 1, To: 3}, posts)
	if !reflect.DeepEqual(posts, given) {
		t.Fatalf("NewCorpus reordered its caller's slice: %v", posts)
	}
	want := []Post{given[2], given[4], given[1], given[3], given[0]} // (day, id), ties in the order given
	if !reflect.DeepEqual(c.Posts, want) {
		t.Fatalf("corpus order = %v, want %v", c.Posts, want)
	}
	if lo, hi := c.PostIndexRange(3); lo != 2 || hi != 5 {
		t.Fatalf("day 3 indexed as [%d, %d)", lo, hi)
	}
	// Already in corpus order: used as given, no copy.
	if c2 := NewCorpus(c.Window, c.Posts); &c2.Posts[0] != &c.Posts[0] {
		t.Fatal("NewCorpus copied posts that were already in corpus order")
	}
}

func TestAnchorEventBursts(t *testing.T) {
	c := testCorpus(t, 4)
	an := nlp.NewAnalyzer()

	dayStats := func(d timeline.Day) (strongPos, strongNeg, total int) {
		for _, p := range c.OnDay(d) {
			total++
			s := an.Score(p.Text())
			if s.StrongPositive() {
				strongPos++
			}
			if s.StrongNegative() {
				strongNeg++
			}
		}
		return
	}

	preorderPos, _, _ := dayStats(timeline.Date(2021, time.February, 9))
	_, delayNeg, _ := dayStats(timeline.Date(2021, time.November, 24))
	_, aprNeg, _ := dayStats(timeline.Date(2022, time.April, 22))
	_, janNeg, _ := dayStats(timeline.Date(2022, time.January, 7))
	_, augNeg, _ := dayStats(timeline.Date(2022, time.August, 30))

	if preorderPos < 150 {
		t.Fatalf("preorder day strong-positive = %d, too small", preorderPos)
	}
	if delayNeg < 120 {
		t.Fatalf("delay day strong-negative = %d, too small", delayNeg)
	}
	if aprNeg < 80 {
		t.Fatalf("April outage strong-negative = %d, too small", aprNeg)
	}
	// Fig 5a ordering: preorder > delay > April-outage > the press-covered
	// outages (whose posts are mostly mild symptom reports).
	if !(preorderPos > delayNeg && delayNeg > aprNeg) {
		t.Fatalf("top-3 ordering broken: preorder=%d delay=%d apr=%d", preorderPos, delayNeg, aprNeg)
	}
	if aprNeg <= janNeg || aprNeg <= augNeg {
		t.Fatalf("April (%d) should exceed Jan (%d) and Aug (%d) in strong sentiment", aprNeg, janNeg, augNeg)
	}
}

func TestOutageKeywordOrdering(t *testing.T) {
	c := testCorpus(t, 5)
	dict := nlp.OutageDictionary()
	an := nlp.NewAnalyzer()
	keywordCount := func(d timeline.Day) int {
		n := 0
		for _, p := range c.OnDay(d) {
			s := an.Score(p.Text())
			if s.Negative > s.Positive { // Fig 6's negative-sentiment gate
				n += dict.Count(p.Text())
			}
		}
		return n
	}
	jan := keywordCount(timeline.Date(2022, time.January, 7))
	apr := keywordCount(timeline.Date(2022, time.April, 22))
	aug := keywordCount(timeline.Date(2022, time.August, 30))
	quiet := keywordCount(timeline.Date(2022, time.June, 8))
	// Fig 6: the reported global outages have the largest keyword spikes.
	if !(jan > apr && aug > apr) {
		t.Fatalf("keyword ordering broken: jan=%d apr=%d aug=%d", jan, apr, aug)
	}
	if quiet*5 > apr {
		t.Fatalf("quiet day keywords %d too close to outage day %d", quiet, apr)
	}
}

func TestAprilOutageCountrySpread(t *testing.T) {
	c := testCorpus(t, 6)
	day := timeline.Date(2022, time.April, 22)
	countries := map[string]int{}
	for _, p := range c.OnDay(day) {
		if p.TruthKind == KindOutage {
			countries[p.Country]++
		}
	}
	if len(countries) < 14 {
		t.Fatalf("April outage spans %d countries, want >= 14", len(countries))
	}
	if countries["US"] < 100 {
		t.Fatalf("US reports = %d, want ~190", countries["US"])
	}
}

func TestRoamingLeadTime(t *testing.T) {
	c := testCorpus(t, 8)
	tweetDay := timeline.Date(2022, time.March, 3)
	firstMention := timeline.Day(1 << 30)
	var preTweetMentions int
	for i := range c.Posts {
		p := &c.Posts[i]
		if p.TruthKind != KindFeature {
			continue
		}
		if p.Day < firstMention {
			firstMention = p.Day
		}
		if p.Day < tweetDay {
			preTweetMentions++
		}
	}
	lead := int(tweetDay - firstMention)
	if lead < 10 || lead > 21 {
		t.Fatalf("roaming first mention %d days before tweet, want ~14", lead)
	}
	if preTweetMentions < 50 {
		t.Fatalf("only %d pre-announcement roaming posts", preTweetMentions)
	}
	// Feature threads are popular (miner relies on this).
	var featureUp, generalUp, nFeat, nGen float64
	for i := range c.Posts {
		p := &c.Posts[i]
		switch p.TruthKind {
		case KindFeature:
			featureUp += float64(p.Upvotes)
			nFeat++
		case KindGeneral:
			generalUp += float64(p.Upvotes)
			nGen++
		}
	}
	if featureUp/nFeat <= generalUp/nGen {
		t.Fatalf("feature posts not more popular: %v vs %v", featureUp/nFeat, generalUp/nGen)
	}
}

func TestNoRoamingBeforeLeak(t *testing.T) {
	c := testCorpus(t, 9)
	leak := timeline.Date(2022, time.February, 15)
	for i := range c.Posts {
		p := &c.Posts[i]
		if p.Day < leak && p.TruthKind == KindFeature {
			t.Fatalf("feature post before the leak day: %+v", p)
		}
	}
}

func TestSpeedPostsSentimentFollowsConditions(t *testing.T) {
	// Posts carrying fast-for-the-time results should skew positive, slow
	// ones negative — measured with the NLP pipeline, not ground truth.
	c := testCorpus(t, 10)
	an := nlp.NewAnalyzer()
	m := leo.NewModel()
	var fastPos, fastNeg, slowPos, slowNeg int
	for i := range c.Posts {
		p := &c.Posts[i]
		if p.TruthKind != KindSpeedTest {
			continue
		}
		med := m.MedianDownMbps(p.Day)
		s := an.Score(p.Text())
		switch {
		case p.TruthReport.DownMbps > med*1.5:
			if s.Positive > s.Negative {
				fastPos++
			} else if s.Negative > s.Positive {
				fastNeg++
			}
		case p.TruthReport.DownMbps < med*0.6:
			if s.Positive > s.Negative {
				slowPos++
			} else if s.Negative > s.Positive {
				slowNeg++
			}
		}
	}
	if fastPos <= fastNeg {
		t.Fatalf("fast results should skew positive: %d pos vs %d neg", fastPos, fastNeg)
	}
	if slowNeg <= slowPos {
		t.Fatalf("slow results should skew negative: %d pos vs %d neg", slowNeg, slowPos)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Window: timeline.StarlinkWindow}); err == nil {
		t.Fatal("missing model accepted")
	}
	cfg := DefaultConfig(1)
	cfg.Window = timeline.Range{From: 5, To: 0} // zero-length
	if _, err := Generate(cfg); err == nil {
		t.Fatal("empty window accepted")
	}
}

func TestOCRRecoverable(t *testing.T) {
	// The screenshots in the corpus must be readable by the OCR stage at
	// high yield, with values matching ground truth.
	c := testCorpus(t, 11)
	total, ok, accurate := 0, 0, 0
	for i := range c.Posts {
		p := &c.Posts[i]
		if p.TruthKind != KindSpeedTest {
			continue
		}
		total++
		ex, err := ocr.Extract(*p.Screenshot)
		if err != nil {
			continue
		}
		ok++
		if rel := abs(ex.DownMbps-p.TruthReport.DownMbps) / p.TruthReport.DownMbps; rel < 0.1 {
			accurate++
		}
	}
	if total == 0 {
		t.Fatal("no speed posts")
	}
	if yield := float64(ok) / float64(total); yield < 0.8 {
		t.Fatalf("OCR yield %v too low", yield)
	}
	if acc := float64(accurate) / float64(ok); acc < 0.95 {
		t.Fatalf("OCR accuracy %v too low", acc)
	}
}

func TestRepliesPresentAndToned(t *testing.T) {
	c := testCorpus(t, 12)
	dict := nlp.OutageDictionary()
	var withReplies, total int
	var outageReportReplies, outageReportKeyworded int
	for i := range c.Posts {
		p := &c.Posts[i]
		total++
		if len(p.Replies) > 0 {
			withReplies++
		}
		if len(p.Replies) > p.Comments || len(p.Replies) > 4 {
			t.Fatalf("reply cap violated: %d replies, %d comments", len(p.Replies), p.Comments)
		}
		// Thread text includes the replies.
		if len(p.Replies) > 0 && len(p.ThreadText()) <= len(p.Text()) {
			t.Fatal("ThreadText does not extend Text")
		}
		if p.TruthKind == KindOutage && len(p.Replies) > 0 {
			outageReportReplies++
			hasKeyword := false
			for _, rep := range p.Replies {
				if dict.Matches(rep.Text) {
					hasKeyword = true
					break
				}
			}
			if hasKeyword {
				outageReportKeyworded++
			}
		}
	}
	if frac := float64(withReplies) / float64(total); frac < 0.7 {
		t.Fatalf("only %v of posts have textual replies", frac)
	}
	// Outage threads lean on keyword-bearing confirmations overall
	// (report threads do; angry threads vent).
	if outageReportReplies == 0 || outageReportKeyworded == 0 {
		t.Fatal("no keyworded outage replies")
	}
}

func TestPostJSONHidesTruthKeepsReplies(t *testing.T) {
	c := testCorpus(t, 13)
	for i := range c.Posts {
		p := &c.Posts[i]
		if p.TruthKind != KindSpeedTest || len(p.Replies) == 0 {
			continue
		}
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		s := string(data)
		if strings.Contains(s, "Truth") || strings.Contains(s, "truth") {
			t.Fatalf("ground truth leaked into JSON: %s", s)
		}
		if !strings.Contains(s, "replies") {
			t.Fatalf("replies missing from JSON: %s", s)
		}
		var back Post
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back.ThreadText() != p.ThreadText() {
			t.Fatal("thread text not preserved through JSON")
		}
		return
	}
	t.Fatal("no speed-test post with replies found")
}

func TestPostKindStrings(t *testing.T) {
	for k := KindGeneral; k <= KindFeature; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", int(k))
		}
	}
	if PostKind(99).String() != "unknown" {
		t.Fatal("unknown kind mislabeled")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
