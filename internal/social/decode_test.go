package social

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// checkDecodePost is DecodePost's contract on one line: the Post and the
// error are json.Unmarshal's, and canonical reports whether the hand
// decoder took the line itself.
func checkDecodePost(t *testing.T, line []byte) (canonical bool) {
	t.Helper()
	var got, want Post
	err := DecodePost(line, &got)
	wantErr := json.Unmarshal(line, &want)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("DecodePost(%q) error %v, json.Unmarshal %v", line, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodePost(%q):\n got %#v\nwant %#v", line, got, want)
	}
	var hand Post
	return decodeCanonicalPost(line, &hand) == nil
}

// postDecodeSeeds are lines the canonical shape barely admits or barely
// misses; each must decode to exactly encoding/json's answer.
var postDecodeSeeds = []string{
	`{}`,
	` {"id":1} `,
	`null`,
	`{"id":1,"day":2,"author":"a","title":"t","body":"b","upvotes":-3,"comments":4,"country":"US"}`,
	`{"id":1,"replies":[{"author":"x","text":"y"},null,{}],"screenshot":{"Lines":["a",null,"é"]}}`,
	`{"replies":[],"screenshot":{}}`,
	`{"replies":null,"screenshot":null}`,
	`{"screenshot":{"Lines":[]}}`,
	`{"screenshot":{"Lines":null}}`,
	`{"screenshot":{"Lines":["a"]},"screenshot":{"Lines":["b","c"]}}`,
	`{"replies":[{"author":"a","text":"t"}],"replies":[{"author":"b"}]}`,
	`{"replies":[{"author":"a","author":"b"}]}`,
	`{"Title":"case"}`,
	`{"screenshot":{"lines":["a"]}}`,
	`{"replies":[{"Author":"a"}]}`,
	`{"id":1,"id":2}`,
	`{"extra":1,"id":2}`,
	`{"id":01}`,
	`{"upvotes":1e2}`,
	`{"upvotes":1.0}`,
	`{"id":-1}`,
	`{"id":18446744073709551615}`,
	`{"id":18446744073709551616}`,
	`{"day":-9223372036854775808}`,
	`{"upvotes":"5"}`,
	`{"title":5}`,
	`{"title":"bad` + "\xff\xfe" + `utf8"}`,
	`{"title":"😀 \ud800 \udc00x \ud800\ud800"}`,
	`{"title":"it\'s"}`,
	`{"title":"a\"b\\c\/d\b\f\n\r\t<"}`,
	`{"title":"ctrl` + "\x01" + `"}`,
	`{"body":"naïve — ☎ 日本"}`,
	`{"id":7}`,
	`{"id":1}x`,
	`{"id":1`,
	`{"id":1,}`,
	`{"id":nul}`,
	`{"id":null,"title":null,"replies":[null]}`,
	`[]`,
	``,
}

func TestDecodePostMatchesStdlib(t *testing.T) {
	for _, line := range postDecodeSeeds {
		checkDecodePost(t, []byte(line))
	}
}

// TestDecodePostSeed42Corpus encodes every post of the seed-42 corpus the
// way the journal does and requires each line to take the hand path and
// decode to encoding/json's Post.
func TestDecodePostSeed42Corpus(t *testing.T) {
	c, err := Generate(DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePostsJSONL(&buf, c.Posts); err != nil {
		t.Fatal(err)
	}
	n, withReplies, withShots := 0, 0, 0
	for _, line := range bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte{'\n'}), []byte{'\n'}) {
		if !checkDecodePost(t, line) {
			t.Fatalf("canonical line fell back to encoding/json: %s", line)
		}
		p := &c.Posts[n]
		if len(p.Replies) > 0 {
			withReplies++
		}
		if p.Screenshot != nil {
			withShots++
		}
		n++
	}
	if n != len(c.Posts) || withReplies == 0 || withShots == 0 {
		t.Fatalf("decoded %d of %d posts (%d with replies, %d with screenshots)", n, len(c.Posts), withReplies, withShots)
	}
}

func FuzzPostDecode(f *testing.F) {
	for _, line := range postDecodeSeeds {
		f.Add([]byte(line))
	}
	c, err := Generate(DefaultConfig(7))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePostsJSONL(&buf, c.Posts[:40]); err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(buf.Bytes(), []byte{'\n'}) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) { checkDecodePost(t, line) })
}
