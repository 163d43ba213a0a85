package social

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestPostsJSONLRoundTrip(t *testing.T) {
	c := testCorpus(t, 14)
	posts := c.Posts[:300]
	var buf bytes.Buffer
	if err := WritePostsJSONL(&buf, posts); err != nil {
		t.Fatal(err)
	}
	back, err := CollectPostsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(posts) {
		t.Fatalf("read %d of %d", len(back), len(posts))
	}
	for i := range posts {
		if back[i].ID != posts[i].ID || back[i].ThreadText() != posts[i].ThreadText() {
			t.Fatalf("post %d mismatch", i)
		}
		if back[i].TruthKind != KindGeneral && back[i].TruthKind != 0 {
			t.Fatal("ground truth crossed the wire")
		}
		if posts[i].Screenshot != nil && back[i].Screenshot == nil {
			t.Fatalf("screenshot lost on post %d", i)
		}
	}
}

func TestReadPostsJSONLErrors(t *testing.T) {
	if err := ReadPostsJSONL(strings.NewReader("{broken\n"), func(*Post) error { return nil }); err == nil {
		t.Fatal("broken JSON accepted")
	}
	sentinel := errors.New("stop")
	input := "{\"id\":1}\n{\"id\":2}\n"
	n := 0
	err := ReadPostsJSONL(strings.NewReader(input), func(*Post) error {
		n++
		return sentinel
	})
	if !errors.Is(err, sentinel) || n != 1 {
		t.Fatalf("callback error handling: err=%v n=%d", err, n)
	}
	// Blank lines are skipped; empty input is fine.
	if err := ReadPostsJSONL(strings.NewReader("\n\n"), func(*Post) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestReadPostsJSONLLineCap: lines up to 8 MiB decode, longer ones are an
// error, not a silently truncated post.
func TestReadPostsJSONLLineCap(t *testing.T) {
	body := strings.Repeat("x", 7<<20)
	n := 0
	err := ReadPostsJSONL(strings.NewReader(`{"id":1,"body":"`+body+`"}`), func(p *Post) error {
		if p.Body != body {
			t.Fatalf("7 MiB body read back as %d bytes", len(p.Body))
		}
		n++
		return nil
	})
	if err != nil || n != 1 {
		t.Fatalf("7 MiB line: %d posts, %v", n, err)
	}
	if err := ReadPostsJSONL(strings.NewReader(`{"body":"`+strings.Repeat("x", 9<<20)+`"}`), func(*Post) error { return nil }); err == nil {
		t.Fatal("9 MiB line accepted")
	}
}
