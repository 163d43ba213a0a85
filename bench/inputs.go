package main

import (
	"encoding/json"
	"fmt"

	"usersignals/internal/conference"
	"usersignals/internal/leo"
	"usersignals/internal/social"
	"usersignals/internal/telemetry"
	"usersignals/internal/timeline"
)

const (
	smallBatch = 20  // records per small batch, what a usaas.Client collector uploads
	bulkBatch  = 500 // records per bulk batch, what a backfill job uploads
)

// batch is one pre-encoded ingest body. Sessions travel as NDJSON and posts
// as a JSON array, the two forms usaas.Client sends and the only ones the
// coordinator accepts.
type batch struct {
	posts bool
	body  []byte
	lo    int // records [lo, lo+n) of inputs.sessions or inputs.posts
	n     int
}

func (b batch) path() string {
	if b.posts {
		return "/v1/posts"
	}
	return "/v1/sessions"
}

func (b batch) contentType() string {
	if b.posts {
		return "application/json"
	}
	return "application/x-ndjson"
}

// inputs is everything the daemon will ever be sent, made from the seed
// alone and encoded once so the load loops spend no time in the encoders.
type inputs struct {
	seed     uint64
	sessions []telemetry.SessionRecord
	posts    []social.Post

	smallSessions, bulkSessions []batch
	smallPosts, bulkPosts       []batch
}

// inputSize is how much is generated: conference calls (about six sessions
// each) and days of the social corpus.
type inputSize struct {
	calls      int
	socialDays int
	surveyRate float64 // 0 keeps the generator's 0.5%
}

var (
	// fullSize is ≈6.2k sessions (≈4 MB of NDJSON) and the whole two-year
	// corpus, ≈38k posts.
	fullSize = inputSize{calls: 1000, socialDays: timeline.StarlinkWindow.Len()}
	// smokeSize keeps a smoke run short. Its survey rate is ten times the
	// default so that the few sessions still carry the ratings the MOS
	// endpoints need.
	smokeSize = inputSize{calls: 150, socialDays: 180, surveyRate: 0.05}
)

// makeInputs generates the conferencing dataset and the social corpus for
// seed.
func makeInputs(seed uint64, size inputSize) (*inputs, error) {
	copts := conference.Defaults(seed, size.calls)
	if size.surveyRate > 0 {
		copts.SurveyRate = size.surveyRate
	}
	g, err := conference.New(copts)
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed}
	if in.sessions, err = g.GenerateAll(); err != nil {
		return nil, err
	}
	scfg := social.DefaultConfig(seed)
	if size.socialDays < scfg.Window.Len() {
		scfg.Window.To = scfg.Window.From + timeline.Day(size.socialDays-1)
		scfg.Outages = leo.AllOutages(seed, scfg.Window, 1.5)
	}
	corpus, err := social.Generate(scfg)
	if err != nil {
		return nil, err
	}
	in.posts = corpus.Posts
	if len(in.sessions) < bulkBatch || len(in.posts) < bulkBatch {
		return nil, fmt.Errorf("inputs too small: %d sessions, %d posts", len(in.sessions), len(in.posts))
	}
	for _, size := range []int{smallBatch, bulkBatch} {
		sess, err := encodeSessions(in.sessions, size)
		if err != nil {
			return nil, err
		}
		posts, err := encodePosts(in.posts, size)
		if err != nil {
			return nil, err
		}
		if size == smallBatch {
			in.smallSessions, in.smallPosts = sess, posts
		} else {
			in.bulkSessions, in.bulkPosts = sess, posts
		}
	}
	return in, nil
}

// encodeSessions cuts recs into whole batches of size; a short remainder is
// left out so every batch of a kind costs the same.
func encodeSessions(recs []telemetry.SessionRecord, size int) ([]batch, error) {
	var out []batch
	for lo := 0; lo+size <= len(recs); lo += size {
		body, err := telemetry.AppendNDJSON(nil, recs[lo:lo+size])
		if err != nil {
			return nil, err
		}
		out = append(out, batch{body: body, lo: lo, n: size})
	}
	return out, nil
}

func encodePosts(posts []social.Post, size int) ([]batch, error) {
	return encodePostsFrom(posts, 0, size)
}

// encodePostsFrom cuts posts[from:] into whole batches of size.
func encodePostsFrom(posts []social.Post, from, size int) ([]batch, error) {
	var out []batch
	for lo := from; lo+size <= len(posts); lo += size {
		body, err := json.Marshal(posts[lo : lo+size])
		if err != nil {
			return nil, err
		}
		out = append(out, batch{posts: true, body: body, lo: lo, n: size})
	}
	return out, nil
}

// cycle returns batches[i mod len]: phases that need more session batches
// than the dataset holds replay it under fresh batch IDs.
func cycle(batches []batch, i int) batch { return batches[i%len(batches)] }

// smallPost returns the k-th small post batch, or, once the corpus is used
// up, a session batch in its place. Posts are never replayed: each is sent
// once and in corpus order, by one uploader, because usaasd's live speed
// view misattributes sentiment once posts arrive out of (day, id) order
// (Store.Corpus sorts the store's own post slice in place; see README.md).
func (in *inputs) smallPost(k int) batch {
	if k < len(in.smallPosts) {
		return in.smallPosts[k]
	}
	return cycle(in.smallSessions, k)
}
