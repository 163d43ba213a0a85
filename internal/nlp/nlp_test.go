package nlp

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"don't-stop", []string{"dont", "stop"}},
		{"speeds: 95.4 Mbps (down)", []string{"speeds", "95", "4", "mbps", "down"}},
		{"", nil},
		{"   ", nil},
		{"Ünïcode ÇAFÉ", []string{"ünïcode", "çafé"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestTokenizeLowercaseProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" || tok != strings.ToLower(tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"outages":      "outage",
		"outage":       "outage",
		"drops":        "drop",
		"dropped":      "drop",
		"dropping":     "drop",
		"disconnects":  "disconnect",
		"disconnected": "disconnect",
		"speeds":       "speed",
		"flies":        "fly",
		"glass":        "glass",
		"working":      "work",
		"is":           "is",
		"us":           "us",
		"falling":      "fall", // ll not undoubled
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Fatalf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	for _, w := range []string{"outage", "drop", "disconnect", "speed", "service", "roaming"} {
		once := Stem(w)
		if twice := Stem(once); twice != once {
			t.Fatalf("Stem not idempotent on %q: %q → %q", w, once, twice)
		}
	}
}

func TestContentTokens(t *testing.T) {
	got := ContentTokens("The outage is very bad and I am not happy")
	for _, tok := range got {
		if IsStopword(tok) {
			t.Fatalf("stopword %q leaked: %v", tok, got)
		}
		if len(tok) <= 1 {
			t.Fatalf("single-letter token leaked: %v", got)
		}
	}
	joined := strings.Join(got, " ")
	if !strings.Contains(joined, "outage") || !strings.Contains(joined, "happy") {
		t.Fatalf("content words missing: %v", got)
	}
}

func TestSentimentPolarity(t *testing.T) {
	a := NewAnalyzer()
	cases := []struct {
		text string
		want string // "pos", "neg", "neu"
	}{
		{"This is absolutely amazing, I love the fast speeds!", "pos"},
		{"Terrible outage again, completely dead for hours. Furious.", "neg"},
		{"I placed the dish on the roof near the chimney yesterday.", "neu"},
		{"Preorder finally open! So excited, amazing news for rural users.", "pos"},
		{"Constant disconnects, unusable for video calls, very disappointed.", "neg"},
	}
	for _, c := range cases {
		s := a.Score(c.text)
		if math.Abs(s.Positive+s.Negative+s.Neutral-1) > 1e-9 {
			t.Fatalf("scores do not sum to 1: %+v", s)
		}
		var got string
		switch {
		case s.Positive > s.Negative && s.Positive > s.Neutral:
			got = "pos"
		case s.Negative > s.Positive && s.Negative > s.Neutral:
			got = "neg"
		default:
			got = "neu"
		}
		if got != c.want {
			t.Fatalf("Score(%q) = %+v, classified %s, want %s", c.text, s, got, c.want)
		}
	}
}

func TestStrongThresholdReachable(t *testing.T) {
	a := NewAnalyzer()
	pos := a.Score("Absolutely amazing! Fantastic speeds, love it, so excited!")
	if !pos.StrongPositive() {
		t.Fatalf("emphatic praise should be strongly positive: %+v", pos)
	}
	neg := a.Score("Terrible outage, completely broken, absolutely unacceptable garbage.")
	if !neg.StrongNegative() {
		t.Fatalf("emphatic complaint should be strongly negative: %+v", neg)
	}
}

func TestNegationFlips(t *testing.T) {
	a := NewAnalyzer()
	plain := a.Score("The service is good and reliable.")
	negated := a.Score("The service is not good and not reliable.")
	if plain.Positive <= plain.Negative {
		t.Fatalf("plain positive misread: %+v", plain)
	}
	if negated.Negative <= negated.Positive {
		t.Fatalf("negation not applied: %+v", negated)
	}
}

func TestIntensifiersAmplify(t *testing.T) {
	a := NewAnalyzer()
	mild := a.Score("The speed is good.")
	strong := a.Score("The speed is extremely good.")
	if strong.Positive <= mild.Positive {
		t.Fatalf("intensifier did not amplify: %v vs %v", strong.Positive, mild.Positive)
	}
	dim := a.Score("The speed is slightly good.")
	if dim.Positive >= mild.Positive {
		t.Fatalf("diminisher did not dampen: %v vs %v", dim.Positive, mild.Positive)
	}
}

func TestLongNeutralTextDilutes(t *testing.T) {
	a := NewAnalyzer()
	short := a.Score("Great speeds!")
	long := a.Score("Great speeds! " + strings.Repeat("The dish sits on the roof beside the antenna mast near the barn. ", 5))
	if long.Positive >= short.Positive {
		t.Fatalf("rambling text should dilute: %v vs %v", long.Positive, short.Positive)
	}
	if long.Neutral <= short.Neutral {
		t.Fatal("neutral mass should grow with plain tokens")
	}
}

func TestScoreProperties(t *testing.T) {
	a := NewAnalyzer()
	f := func(s string) bool {
		sc := a.Score(s)
		sum := sc.Positive + sc.Negative + sc.Neutral
		return sc.Positive >= 0 && sc.Negative >= 0 && sc.Neutral > 0 &&
			math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTextIsNeutral(t *testing.T) {
	s := NewAnalyzer().Score("")
	if s.Neutral != 1 || s.Positive != 0 || s.Negative != 0 {
		t.Fatalf("empty text = %+v", s)
	}
}

func TestCountUnigramsAndTop(t *testing.T) {
	texts := []string{
		"Outage again. The outage lasted hours.",
		"Another outage and more disconnects.",
		"Speeds are great today, speeds way up.",
	}
	counts := CountUnigrams(texts)
	if counts["outage"] != 3 {
		t.Fatalf("outage count = %d, want 3 (stemming)", counts["outage"])
	}
	if counts["speed"] != 2 {
		t.Fatalf("speed count = %d", counts["speed"])
	}
	top := Top(counts, 2)
	if len(top) != 2 || top[0].Word != "outage" {
		t.Fatalf("Top = %+v", top)
	}
	// Ties broken alphabetically.
	tie := Top(map[string]int{"b": 2, "a": 2, "c": 1}, 3)
	if tie[0].Word != "a" || tie[1].Word != "b" {
		t.Fatalf("tie order: %+v", tie)
	}
	if got := Top(nil, 5); len(got) != 0 {
		t.Fatalf("Top(nil) = %+v", got)
	}
}

func TestWordCloud(t *testing.T) {
	wc := WordCloud([]string{"massive outage tonight", "outage outage everywhere"}, 1)
	if len(wc) != 1 || wc[0].Word != "outage" || wc[0].Count != 3 {
		t.Fatalf("WordCloud = %+v", wc)
	}
}

func TestCountBigrams(t *testing.T) {
	counts := CountBigrams([]string{"roaming enabled on my dish", "roaming enabled for me too"})
	// Keys are stemmed: "roaming enabled" → "roam enabl".
	if counts["roam enabl"] != 2 {
		t.Fatalf("bigram count = %v", counts)
	}
}

func TestDictionary(t *testing.T) {
	d := OutageDictionary()
	cases := []struct {
		text  string
		match bool
	}{
		{"Total outage here in Ohio", true},
		{"My OUTAGES started an hour ago", true}, // case + plural via stem
		{"I have no connection since noon", true},
		{"The service went down around 9", true},
		{"Lovely sunny day, speeds are great", false},
		{"download speeds doubled overnight", false},
	}
	for _, c := range cases {
		if got := d.Matches(c.text); got != c.match {
			t.Fatalf("Matches(%q) = %v, want %v", c.text, got, c.match)
		}
	}
	if n := d.Count("outage outage and no connection"); n != 3 {
		t.Fatalf("Count = %d, want 3", n)
	}
}

func TestDictionaryPhraseBoundaries(t *testing.T) {
	d := NewDictionary("no service")
	if d.Matches("there is no better service") {
		t.Fatal("phrase matched non-adjacent tokens")
	}
	if !d.Matches("I've had No Service all day") {
		t.Fatal("phrase failed to match")
	}
	empty := NewDictionary()
	if empty.Matches("anything") {
		t.Fatal("empty dictionary matched")
	}
}

// TestRankShortHeadMatchesFullSort: picking a short head out of a long list
// takes the insertion path; it must agree with sorting everything.
func TestRankShortHeadMatchesFullSort(t *testing.T) {
	var words []WordCount
	for i := 0; i < 300; i++ {
		words = append(words, WordCount{Word: fmt.Sprintf("w%03d", (i*131)%300), Count: (i * 7919) % 23})
	}
	full := Rank(append([]WordCount(nil), words...), len(words))
	for _, k := range []int{0, 1, 12, 32, 33, 299, 300, 400} {
		got := Rank(append([]WordCount(nil), words...), k)
		if want := full[:min(k, len(full))]; !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Errorf("k=%d: head differs from the full sort's", k)
		}
	}
}
