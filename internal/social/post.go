// Package social is the discussion-forum substrate standing in for the
// r/Starlink corpus of §4: users, posts, upvotes, and comment counts, with
// post volume and content driven by the ISP timeline (leo) — outages spawn
// outage threads, milestones spawn reaction threads, the current
// speed-versus-expectation gap tilts everyday posts between praise and
// complaint, and a trickle of posts carries speed-test screenshots (ocr).
//
// Each post records its generation ground truth (kind, and the true
// speed-test report behind a screenshot), which downstream code must not
// use for analysis — it exists so tests can measure how well the NLP/OCR
// pipelines recover the truth.
package social

import (
	"sort"
	"strings"
	"sync"

	"usersignals/internal/ocr"
	"usersignals/internal/timeline"
)

// PostKind is the generator's ground-truth label for a post.
type PostKind int

// Post kinds.
const (
	KindGeneral   PostKind = iota // setup questions, photos, chatter
	KindPraise                    // experience-driven positive post
	KindComplaint                 // experience-driven negative post
	KindOutage                    // outage report
	KindSpeedTest                 // carries a speed-test screenshot
	KindMilestone                 // reaction to a timeline event
	KindFeature                   // feature discovery/discussion (roaming)
)

// String names the kind.
func (k PostKind) String() string {
	switch k {
	case KindGeneral:
		return "general"
	case KindPraise:
		return "praise"
	case KindComplaint:
		return "complaint"
	case KindOutage:
		return "outage"
	case KindSpeedTest:
		return "speedtest"
	case KindMilestone:
		return "milestone"
	case KindFeature:
		return "feature"
	default:
		return "unknown"
	}
}

// Comment is one reply in a thread. Only a sampled prefix of each thread's
// replies carries text (as a crawler retaining top comments would);
// Post.Comments is the full count.
type Comment struct {
	Author string `json:"author"`
	Text   string `json:"text"`
}

// Post is one forum submission. The Truth* fields are generation ground
// truth and are excluded from serialization: a consumer of the corpus (the
// USaaS service in particular) must never see them.
type Post struct {
	ID       uint64       `json:"id"`
	Day      timeline.Day `json:"day"`
	Author   string       `json:"author"`
	Title    string       `json:"title"`
	Body     string       `json:"body"`
	Upvotes  int          `json:"upvotes"`
	Comments int          `json:"comments"`
	Country  string       `json:"country"`

	// Replies holds the text of up to maxTextReplies top comments.
	Replies []Comment `json:"replies,omitempty"`

	// Screenshot is attached to speed-test posts (nil otherwise).
	Screenshot *ocr.Screenshot `json:"screenshot,omitempty"`

	// Ground truth for validation only — see the package comment.
	TruthKind   PostKind    `json:"-"`
	TruthReport *ocr.Report `json:"-"`
}

// Text returns title and body joined: the unit the sentiment stage scores
// (the paper scores "individual Reddit posts").
func (p *Post) Text() string { return p.Title + ". " + p.Body }

// ThreadText returns the post plus its retained replies: the unit the
// Fig. 6 keyword monitor scans (the paper counts keyword occurrences "in
// these filtered Reddit threads").
func (p *Post) ThreadText() string {
	if len(p.Replies) == 0 {
		return p.Text()
	}
	var b strings.Builder
	b.WriteString(p.Text())
	for _, c := range p.Replies {
		b.WriteString(" ")
		b.WriteString(c.Text)
	}
	return b.String()
}

// Corpus is a day-indexed collection of posts.
type Corpus struct {
	Window timeline.Range
	Posts  []Post // sorted by (Day, ID)

	byDay map[timeline.Day][]int

	// tokens is the lazily built tokenize-once index (tokens.go).
	tokOnce sync.Once
	tokens  *TokenCache
}

// Before reports whether p sorts ahead of q in corpus order: by day, then
// by ID.
func (p *Post) Before(q *Post) bool {
	if p.Day != q.Day {
		return p.Day < q.Day
	}
	return p.ID < q.ID
}

// NewCorpus builds a corpus over the window from posts, indexed by day. The
// caller's slice is never reordered: posts already in corpus order are used
// as they are, anything else is sorted in a private copy.
func NewCorpus(window timeline.Range, posts []Post) *Corpus {
	before := func(i, j int) bool { return posts[i].Before(&posts[j]) }
	if !sort.SliceIsSorted(posts, before) {
		posts = append([]Post(nil), posts...)
		sort.SliceStable(posts, before)
	}
	c := &Corpus{Window: window, Posts: posts, byDay: make(map[timeline.Day][]int)}
	for i := range posts {
		c.byDay[posts[i].Day] = append(c.byDay[posts[i].Day], i)
	}
	return c
}

// OnDay returns the posts of one day (shared backing; do not modify).
func (c *Corpus) OnDay(d timeline.Day) []*Post {
	idx := c.byDay[d]
	out := make([]*Post, len(idx))
	for i, j := range idx {
		out[i] = &c.Posts[j]
	}
	return out
}

// PostIndexRange returns the half-open [lo, hi) range of c.Posts indices on
// day d — contiguous because Posts is sorted by (Day, ID). Empty days
// return (0, 0).
func (c *Corpus) PostIndexRange(d timeline.Day) (lo, hi int) {
	idx := c.byDay[d]
	if len(idx) == 0 {
		return 0, 0
	}
	return idx[0], idx[len(idx)-1] + 1
}

// Len returns the total post count.
func (c *Corpus) Len() int { return len(c.Posts) }

// WeeklyAverages returns posts, upvotes, and comments per week — the §4.1
// corpus statistics (372 / 8,190 / 5,702 in the paper).
func (c *Corpus) WeeklyAverages() (posts, upvotes, comments float64) {
	weeks := float64(c.Window.Len()) / 7
	if weeks <= 0 {
		return 0, 0, 0
	}
	var up, cm int
	for i := range c.Posts {
		up += c.Posts[i].Upvotes
		cm += c.Posts[i].Comments
	}
	return float64(len(c.Posts)) / weeks, float64(up) / weeks, float64(cm) / weeks
}
