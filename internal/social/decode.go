package social

import (
	"encoding/json"
	"errors"

	"usersignals/internal/jsonscan"
	"usersignals/internal/ocr"
	"usersignals/internal/timeline"
)

// errNotCanonical sends a line the hand decoder does not take back to
// encoding/json.
var errNotCanonical = errors.New("social: not a canonical post line")

// DecodePost decodes one JSON line into p, zeroing it first, to exactly
// what json.Unmarshal gives: the same Post and the same error. The
// canonical shape WritePostsJSONL writes decodes by hand; a line with an
// unknown, differently cased or repeated key, a number that is not a plain
// JSON integer, or any syntax error goes back through json.Unmarshal, and
// that result is returned.
func DecodePost(line []byte, p *Post) error {
	*p = Post{}
	if decodeCanonicalPost(line, p) == nil {
		return nil
	}
	*p = Post{}
	return json.Unmarshal(line, p)
}

// The top-level keys of a post, one bit each.
const (
	keyID uint16 = 1 << iota
	keyDay
	keyAuthor
	keyTitle
	keyBody
	keyUpvotes
	keyComments
	keyCountry
	keyReplies
	keyScreenshot
)

// decodeCanonicalPost reads line in place (jsonscan.New): p keeps only
// copies of its strings.
func decodeCanonicalPost(line []byte, p *Post) error {
	s := jsonscan.New(line)
	s.SkipSpace()
	var seen uint16
	// take marks a key set, failing a repeat: encoding/json would merge
	// the second value into the first.
	take := func(bit uint16) bool {
		first := seen&bit == 0
		seen |= bit
		return first
	}
	err := s.Object(func(key string) error {
		switch {
		case key == "id" && take(keyID):
			return uintField(&s, &p.ID)
		case key == "day" && take(keyDay):
			var d int
			err := intField(&s, &d)
			p.Day = timeline.Day(d)
			return err
		case key == "author" && take(keyAuthor):
			return stringField(&s, &p.Author)
		case key == "title" && take(keyTitle):
			return stringField(&s, &p.Title)
		case key == "body" && take(keyBody):
			return stringField(&s, &p.Body)
		case key == "upvotes" && take(keyUpvotes):
			return intField(&s, &p.Upvotes)
		case key == "comments" && take(keyComments):
			return intField(&s, &p.Comments)
		case key == "country" && take(keyCountry):
			return stringField(&s, &p.Country)
		case key == "replies" && take(keyReplies):
			return repliesField(&s, &p.Replies)
		case key == "screenshot" && take(keyScreenshot):
			return screenshotField(&s, &p.Screenshot)
		default:
			return errNotCanonical
		}
	})
	if err != nil {
		return err
	}
	if !s.AtEnd() {
		return errNotCanonical
	}
	return nil
}

// The field readers leave dst zero on null, as json.Unmarshal does for a
// post it starts from zero.

func uintField(s *jsonscan.Scanner, dst *uint64) error {
	if s.TryNull() {
		return nil
	}
	v, ok := s.Uint()
	if !ok {
		return errNotCanonical
	}
	*dst = v
	return nil
}

func intField(s *jsonscan.Scanner, dst *int) error {
	if s.TryNull() {
		return nil
	}
	v, ok := s.Int()
	if !ok || int64(int(v)) != v {
		return errNotCanonical
	}
	*dst = int(v)
	return nil
}

func stringField(s *jsonscan.Scanner, dst *string) error {
	if s.TryNull() {
		return nil
	}
	v, err := s.StringCopy()
	*dst = v
	return err
}

// repliesField decodes the replies array; like encoding/json it gives []
// as an empty, non-nil slice and a null element as a zero Comment.
func repliesField(s *jsonscan.Scanner, dst *[]Comment) error {
	if s.TryNull() {
		return nil
	}
	out := []Comment{}
	err := s.Array(func() error {
		var c Comment
		if !s.TryNull() {
			var seenAuthor, seenText bool
			if err := s.Object(func(key string) error {
				switch {
				case key == "author" && !seenAuthor:
					seenAuthor = true
					return stringField(s, &c.Author)
				case key == "text" && !seenText:
					seenText = true
					return stringField(s, &c.Text)
				default:
					return errNotCanonical
				}
			}); err != nil {
				return err
			}
		}
		out = append(out, c)
		return nil
	})
	*dst = out
	return err
}

// screenshotField decodes the screenshot object; {} gives a non-nil
// Screenshot, and [] an empty, non-nil Lines.
func screenshotField(s *jsonscan.Scanner, dst **ocr.Screenshot) error {
	if s.TryNull() {
		return nil
	}
	shot := &ocr.Screenshot{}
	seenLines := false
	err := s.Object(func(key string) error {
		if key != "Lines" || seenLines {
			return errNotCanonical
		}
		seenLines = true
		if s.TryNull() {
			return nil
		}
		lines := []string{}
		err := s.Array(func() error {
			var line string
			err := stringField(s, &line)
			lines = append(lines, line)
			return err
		})
		shot.Lines = lines
		return err
	})
	*dst = shot
	return err
}
