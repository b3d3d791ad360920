package htmltext

import (
	"testing"

	"doxmeter/internal/sim"
	"doxmeter/internal/textgen"
)

// isProbablyHTMLOracle is the original eight-scan probe, kept as the test
// oracle IsProbablyHTML must agree with: one case-folded non-overlapping
// count per marker over the 2,048-byte sample.
func isProbablyHTMLOracle(s string) bool {
	sample := s
	if len(sample) > 2048 {
		sample = sample[:2048]
	}
	tags := 0
	for _, marker := range htmlMarkers {
		tags += countFoldASCII(sample, marker)
	}
	return tags >= 2
}

// countFoldASCII counts non-overlapping occurrences of the ASCII-lowercase
// needle in s, folding A-Z in s on the fly.
func countFoldASCII(s, needle string) int {
	count := 0
	for i := 0; i+len(needle) <= len(s); {
		match := true
		for j := 0; j < len(needle); j++ {
			c := s[i+j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != needle[j] {
				match = false
				break
			}
		}
		if match {
			count++
			i += len(needle)
		} else {
			i++
		}
	}
	return count
}

// TestSniffMarkerInvariants pins the marker-set properties the one-pass
// probe's equivalence with the oracle rests on: every marker starts with
// '<' and is lowercase, none holds a second '<', and second bytes are
// pairwise distinct, so at most one marker begins at any '<'.
func TestSniffMarkerInvariants(t *testing.T) {
	seen := map[byte]string{}
	for _, m := range htmlMarkers {
		if len(m) < 2 || m[0] != '<' {
			t.Fatalf("marker %q must start with '<' and have a second byte", m)
		}
		for j := 1; j < len(m); j++ {
			if m[j] == '<' {
				t.Fatalf("marker %q holds a second '<'", m)
			}
			if 'A' <= m[j] && m[j] <= 'Z' {
				t.Fatalf("marker %q is not ASCII-lowercase", m)
			}
		}
		if prev, ok := seen[m[1]]; ok {
			t.Fatalf("markers %q and %q share second byte %q", prev, m, m[1])
		}
		seen[m[1]] = m
	}
}

// TestSniffMatchesOracleOnCorpus runs every body of the study corpus at
// the core tests' scale (seed 7, scale 0.02) through the probe and the
// oracle and requires identical verdicts.
func TestSniffMatchesOracleOnCorpus(t *testing.T) {
	c := textgen.New(sim.NewWorld(sim.Default(7, 0.02))).Corpus()
	docs, hits := 0, 0
	for _, site := range textgen.AllSites() {
		for i := range c.Streams[site] {
			body := c.Streams[site][i].Body
			got, want := IsProbablyHTML(body), isProbablyHTMLOracle(body)
			if got != want {
				t.Fatalf("%s doc %s: IsProbablyHTML = %v, oracle = %v",
					site, c.Streams[site][i].ID, got, want)
			}
			docs++
			if got {
				hits++
			}
		}
	}
	if hits == 0 || hits == docs {
		t.Fatalf("corpus exercises one verdict only: %d of %d docs sniffed as HTML", hits, docs)
	}
}
