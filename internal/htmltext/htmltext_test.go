package htmltext

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPlainTextPassthrough(t *testing.T) {
	in := "just some plain text\nwith two lines"
	if got := Convert(in); got != in {
		t.Errorf("plain text altered: %q", got)
	}
}

func TestBreaksAndParagraphs(t *testing.T) {
	got := Convert("line one<br>line two<br/>line three")
	want := "line one\nline two\nline three"
	if got != want {
		t.Errorf("br handling:\ngot  %q\nwant %q", got, want)
	}
	got = Convert("<p>alpha</p><p>beta</p>")
	if !strings.Contains(got, "alpha") || !strings.Contains(got, "beta") {
		t.Fatalf("paragraph content lost: %q", got)
	}
	if !strings.Contains(got, "\n") {
		t.Errorf("paragraphs not separated: %q", got)
	}
}

func TestUnorderedList(t *testing.T) {
	// The paper's example transformation: ul/ol/li tags become indented,
	// newline separated text strings.
	got := Convert("<ul><li>first</li><li>second</li></ul>")
	want := "  * first\n  * second"
	if got != want {
		t.Errorf("ul conversion:\ngot  %q\nwant %q", got, want)
	}
}

func TestOrderedList(t *testing.T) {
	got := Convert("<ol><li>alpha</li><li>beta</li><li>gamma</li></ol>")
	want := "  1. alpha\n  2. beta\n  3. gamma"
	if got != want {
		t.Errorf("ol conversion:\ngot  %q\nwant %q", got, want)
	}
}

func TestNestedLists(t *testing.T) {
	got := Convert("<ul><li>outer</li><ul><li>inner</li></ul><li>outer2</li></ul>")
	if !strings.Contains(got, "  * outer") {
		t.Errorf("missing outer item: %q", got)
	}
	if !strings.Contains(got, "    * inner") {
		t.Errorf("inner item not double-indented: %q", got)
	}
}

func TestEntityDecoding(t *testing.T) {
	got := Convert("Tom &amp; Jerry &gt;&gt;123 &quot;quoted&quot; &#39;x&#39;")
	want := `Tom & Jerry >>123 "quoted" 'x'`
	if got != want {
		t.Errorf("entities:\ngot  %q\nwant %q", got, want)
	}
}

func TestScriptAndStyleDropped(t *testing.T) {
	got := Convert("before<script>alert('evil')</script>after<style>.x{color:red}</style>end")
	if strings.Contains(got, "alert") || strings.Contains(got, "color") {
		t.Errorf("script/style leaked: %q", got)
	}
	if !strings.Contains(got, "before") || !strings.Contains(got, "after") || !strings.Contains(got, "end") {
		t.Errorf("surrounding text lost: %q", got)
	}
}

func TestAttributesIgnored(t *testing.T) {
	got := Convert(`<a href="https://example.com" class="link">click</a> here`)
	if got != "click here" {
		t.Errorf("attribute handling: %q", got)
	}
}

func TestBlockquote(t *testing.T) {
	got := Convert("<blockquote>implying</blockquote>reply")
	if !strings.Contains(got, "> implying") {
		t.Errorf("blockquote prefix missing: %q", got)
	}
}

func TestFourchanStylePost(t *testing.T) {
	// Shape of a real 4chan "com" field.
	in := `<a href="#p123" class="quotelink">&gt;&gt;123</a><br>check this guy out<br><br>Name: John Smith<br>Address: 42 Elm St`
	got := Convert(in)
	if !strings.Contains(got, ">>123") {
		t.Errorf("quotelink lost: %q", got)
	}
	if !strings.Contains(got, "Name: John Smith\nAddress: 42 Elm St") {
		t.Errorf("dox lines not preserved on own lines: %q", got)
	}
}

func TestMalformedHTML(t *testing.T) {
	cases := []string{
		"unterminated <tag",
		"stray > bracket",
		"<>empty tag<>",
		"<li>item outside list",
		"</ul></ul></ul>over-closed",
		"<script>never closed",
	}
	for _, in := range cases {
		// Must not panic, must return something.
		_ = Convert(in)
	}
	if got := Convert("unterminated <tag"); !strings.Contains(got, "unterminated") {
		t.Errorf("text before unterminated tag lost: %q", got)
	}
}

func TestConvertNeverPanicsProperty(t *testing.T) {
	f := func(s string) bool {
		_ = Convert(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNoTagsLeakProperty(t *testing.T) {
	// For inputs made only of well-formed simple tags and safe text, the
	// output contains no '<'.
	f := func(words []string) bool {
		var b strings.Builder
		for _, w := range words {
			clean := strings.Map(func(r rune) rune {
				if r == '<' || r == '>' || r == '&' {
					return ' '
				}
				return r
			}, w)
			b.WriteString("<p>" + clean + "</p>")
		}
		return !strings.Contains(Convert(b.String()), "<")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCollapseBlankRuns(t *testing.T) {
	got := Convert("a<br><br><br><br>b")
	if strings.Contains(got, "\n\n\n") {
		t.Errorf("blank runs not collapsed: %q", got)
	}
}

func TestIsProbablyHTML(t *testing.T) {
	pad := func(n int) string { return strings.Repeat("x", n) }
	cases := []struct {
		name string
		in   string
		want bool
	}{
		{"obvious html", "<p>hello</p><br><div>x</div>", true},
		{"plain dox text", "Name: John\nAddress: 12 Oak St\nPhone: 555-1234", false},
		{"math text", "x < y and y > z", false},
		{"empty", "", false},
		{"exactly one marker", "see <p> here", false},
		{"exactly two markers", "<p>hi<br>", true},
		{"mixed case markers", "<BR>line<Div>block", true},
		{"mixed case anchor and close", "<A HREF=x>y</A>", true},
		{"closing tags only", "</b></i>", true},
		{"anchor without space", "<a>one<a>two", false},
		{"anchor with tab", "<a\thref=x><a\thref=y>", false},
		{"abbr is not an anchor", "<abbr>x<abbr>y", false},
		{"abbr close counts once", "<abbr>who</abbr>", false},
		{"lt as last byte", "<p>text<", false},
		{"lt as last sampled byte", "<p>" + pad(2044) + "<br>", false},
		{"marker ends at the cut", "<p>" + pad(2042) + "<br>", true},
		{"marker straddles the cut", "<p>" + pad(2043) + "<br>", false},
		{"markers only after the cut", pad(2048) + "<p><br><div>", false},
		{"non-ascii around lt", "\u00e9<p>\u00fc<br>\u00e9", true},
		{"non-ascii after lt", "<\u00e9p><\u00fcbr>", false},
		{"control bytes do not fold", "<\x0f<a\x00<P\x10", false},
		{"long s does not fold to s", "<\u017fpan><\u017fpan>", false},
		{"fullwidth lt is not a tag", "\uff1cp\uff1e\uff1cbr\uff1e", false},
	}
	for _, c := range cases {
		if got := IsProbablyHTML(c.in); got != c.want {
			t.Errorf("%s: IsProbablyHTML = %v, want %v", c.name, got, c.want)
		}
		if got := isProbablyHTMLOracle(c.in); got != c.want {
			t.Errorf("%s: oracle = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLargeInput(t *testing.T) {
	in := strings.Repeat("<p>paragraph with some words</p>", 5000)
	got := Convert(in)
	if !strings.HasPrefix(got, "paragraph") {
		t.Errorf("large input mangled: %.60q", got)
	}
}
