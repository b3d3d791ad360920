package htmltext

import (
	"strings"
	"testing"
)

// FuzzConvert hardens the converter against adversarial imageboard HTML:
// it must never panic, and simple well-formed wrappers must round-trip
// their text content.
func FuzzConvert(f *testing.F) {
	seeds := []string{
		"",
		"plain text",
		"<p>para</p>",
		"<ul><li>a</li><li>b</li></ul>",
		"<ol><li>1</li></ol>",
		"a<br>b<br/>c",
		"<script>evil()</script>ok",
		"<blockquote>&gt;implying</blockquote>",
		"unterminated <tag",
		"</" + strings.Repeat("ul>", 50),
		"<li>" + strings.Repeat("<ul>", 100),
		"&amp;&lt;&gt;&#39;&quot;",
		"<span class=\"quote\">&gt;&gt;123</span><br>reply",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		out := Convert(s)
		// Output never grows more than entity expansion allows.
		if len(out) > 2*len(s)+16 {
			t.Fatalf("output ballooned: %d -> %d", len(s), len(out))
		}
	})
}

// FuzzSniffEquivalence holds the one-pass IsProbablyHTML to the original
// eight-scan oracle on arbitrary bytes, including inputs longer than the
// 2,048-byte sample.
func FuzzSniffEquivalence(f *testing.F) {
	pad := strings.Repeat("x", 2046)
	seeds := []string{
		"",
		"plain text with no tags",
		"x < y and y > z",
		"<BR><Div>mixed</DIV><sPaN>",
		"<a href=x>link</a>",
		"<a>no space<a>",
		"<A >upper anchor</A>",
		"</",
		"</</</",
		"<p>" + pad[3:] + "<br>",
		"<p>" + pad[2:] + "<br>",
		pad + "<p><br>",
		"<abbr><abbr></abbr>",
		"<ſpan><ſpan>",
		"<p>trailing<",
		"<\x0f<a\x00<P\x10",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := IsProbablyHTML(s), isProbablyHTMLOracle(s); got != want {
			t.Fatalf("IsProbablyHTML(%q) = %v, oracle = %v", s, got, want)
		}
	})
}
