package social

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// WritePostsJSONL streams posts as JSON Lines. Ground-truth fields are
// excluded by the Post JSON tags.
func WritePostsJSONL(w io.Writer, posts []Post) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range posts {
		if err := enc.Encode(&posts[i]); err != nil {
			return fmt.Errorf("social: encoding post %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("social: flushing posts: %w", err)
	}
	return nil
}

// scanBufs recycles ReadPostsJSONL's scanner windows, so concurrent ingest
// requests and recovery's decoders don't each allocate a fresh 64 KiB one.
var scanBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 64*1024)
	return &b
}}

// ReadPostsJSONL streams posts from r, invoking fn for each; lines up to
// 8 MiB are accepted. Each line decodes as DecodePost does. The post is
// reused between calls; copy it to retain. A non-nil error from fn aborts
// the read and is returned.
func ReadPostsJSONL(r io.Reader, fn func(*Post) error) error {
	sc := bufio.NewScanner(r)
	bufp := scanBufs.Get().(*[]byte)
	defer scanBufs.Put(bufp)
	sc.Buffer(*bufp, 8*1024*1024)
	var p Post
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := DecodePost(sc.Bytes(), &p); err != nil {
			return fmt.Errorf("social: JSONL line %d: %w", line, err)
		}
		if err := fn(&p); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("social: reading JSONL: %w", err)
	}
	return nil
}

// CollectPostsJSONL reads all posts into memory.
func CollectPostsJSONL(r io.Reader) ([]Post, error) {
	var out []Post
	err := ReadPostsJSONL(r, func(p *Post) error {
		out = append(out, *p)
		return nil
	})
	return out, err
}
