package tfidf

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// syntheticVocabDocs returns documents drawing on n distinct random terms
// of 2 to 20 lowercase bytes, so roughly a third are longer than a packed
// key, together with the terms themselves.
func syntheticVocabDocs(n int) (docs, terms []string) {
	r := rand.New(rand.NewSource(1))
	seen := make(map[string]bool, n)
	for len(terms) < n {
		b := make([]byte, 2+r.Intn(19))
		for i := range b {
			b[i] = 'a' + byte(r.Intn(26))
		}
		if t := string(b); !seen[t] {
			seen[t] = true
			terms = append(terms, t)
		}
	}
	for i := 0; i < len(terms); i += 50 {
		docs = append(docs, strings.Join(terms[i:min(i+50, len(terms))], " "))
	}
	return docs, terms
}

// TestTableLongProbeChains rebuilds a 30,000-term vocabulary table at a
// test-only load factor of 97%, so probes walk chains of a hundred slots
// and more and wrap past the last slot. Every term must still resolve to
// its id, near misses must miss, Snapshot must round-trip, and the fused
// kernel must match the kernel over the production-capacity table bit for
// bit.
func TestTableLongProbeChains(t *testing.T) {
	docs, terms := syntheticVocabDocs(30000)
	vz := NewVectorizer(Options{})
	vz.Fit(docs)
	want := vz.table.terms()
	if len(want) != len(terms) {
		t.Fatalf("fitted %d terms, want %d", len(want), len(terms))
	}
	byID := make([]string, len(want))
	for term, id := range want {
		byID[id] = term
	}
	table, err := buildTable(byID, len(byID)+len(byID)/32+1)
	if err != nil {
		t.Fatal(err)
	}
	dense := &Vectorizer{opts: vz.opts, table: table, idf: vz.idf, nDocs: vz.nDocs}
	if got := dense.table.terms(); !reflect.DeepEqual(got, want) {
		t.Fatal("Snapshot of the full table differs from the fitted vocabulary")
	}
	for id, term := range byID {
		if got := lookup(&dense.table, term); got != id {
			t.Fatalf("lookup(%q) = %d, want %d", term, got, id)
		}
		if _, ok := want[term+"q"]; !ok {
			if got := lookup(&dense.table, term+"q"); got != -1 {
				t.Fatalf("lookup(%q) = %d, want miss", term+"q", got)
			}
		}
	}
	// A short term sitting below its home slot reached it by wrapping.
	wrapped, longest := false, 0
	for i, s := range dense.table.slots {
		if s.id != 0 && s.n <= shortKey {
			h := dense.table.home(s.key * mulGolden)
			wrapped = wrapped || h > i
			if h <= i {
				longest = max(longest, i-h)
			}
		}
	}
	if !wrapped || longest < 100 {
		t.Fatalf("probe chains too short to test: wrapped %v, longest %d slots", wrapped, longest)
	}
	weights := make([]float64, len(byID))
	for i := range weights {
		weights[i] = math.Cos(float64(i) * 0.37)
	}
	sparse, full := vz.NewScorer(), dense.NewScorer()
	for i, doc := range docs {
		if i%7 == 0 {
			doc = strings.ToUpper(doc) + " zzzzzzzzzzzz qq"
		}
		a, at := sparse.DotNormalized(doc, weights)
		b, bt := full.DotNormalized(doc, weights)
		if math.Float64bits(a) != math.Float64bits(b) || at != bt {
			t.Fatalf("doc %d: full table (%v, %d) != production table (%v, %d)", i, b, bt, a, at)
		}
	}
}

// TestTableKeyForms pins the packed-key invariants the table relies on:
// a short term's key is its bytes little-endian, lengths separate a
// term from its NUL-extended twin, and a long term is found through the
// arena only when every byte matches.
func TestTableKeyForms(t *testing.T) {
	if got := packKey("ab"); got != 0x6261 {
		t.Fatalf("packKey(ab) = %#x", got)
	}
	if got := string(unpackKey(nil, packKey("abcdefgh"), 8)); got != "abcdefgh" {
		t.Fatalf("unpackKey round trip = %q", got)
	}
	terms := []string{"ab", "ab\x00", "abcdefgh", "abcdefghi", "abcdefghj", "abcdefghijklmnopqrstuvwxyz"}
	tab, err := buildTable(terms, tableCapacity(len(terms)))
	if err != nil {
		t.Fatal(err)
	}
	for id, term := range terms {
		if got := lookup(&tab, term); got != id {
			t.Fatalf("lookup(%q) = %d, want %d", term, got, id)
		}
	}
	for _, miss := range []string{"a", "abc", "abcdefg", "abcdefghk", "abcdefghijklmnopqrstuvwxyZ", ""} {
		if got := lookup(&tab, miss); got != -1 {
			t.Fatalf("lookup(%q) = %d, want miss", miss, got)
		}
	}
	if got := tab.terms(); len(got) != len(terms) {
		t.Fatalf("terms() has %d entries, want %d", len(got), len(terms))
	}
}
