package classifier

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"

	"doxmeter/internal/sgd"
	"doxmeter/internal/tfidf"
)

// fuzzClassifiers trains small classifiers (one per vectorizer config) on a
// fixed corpus; the fuzz target compares the fused kernel against the
// reference path on each.
func fuzzClassifiers(f *testing.F) []*Classifier {
	f.Helper()
	docs := []string{
		"name john smith address 12 main st phone 555 0100 email j@x.com",
		"dropped by anon dox name age city state zip paypal skype",
		"the quick brown fox jumps over the lazy dog",
		"lol nice thread bump pic related",
		"café 東京 résumé naïve wörld user_99 mixed123",
		strings.Repeat("victim info leak account password ", 6),
	}
	labels := []bool{true, true, false, false, false, true}
	var out []*Classifier
	for _, topts := range []tfidf.Options{
		{},
		{Bigrams: true, SublinearTF: true},
	} {
		clf, err := Train(rand.New(rand.NewSource(42)), docs, labels, Options{
			TFIDF: topts,
			SGD:   sgd.Options{Epochs: 5},
		})
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, clf)
	}
	return out
}

// FuzzScorerEquivalence is the differential fuzz target for the fused
// inference kernel: for arbitrary UTF-8 (and invalid-UTF-8) input, the
// fused tokenize→TF-IDF→margin pass must produce a margin bit-identical to
// the reference Decision(Transform(doc)) path, the same token count, and
// the same flagged verdict.
func FuzzScorerEquivalence(f *testing.F) {
	clfs := fuzzClassifiers(f)
	for _, s := range []string{
		"",
		"name address phone",
		"é",  // one multibyte rune: below the 2-rune token floor
		"éé", // length-2 token made of multibyte runes
		"日本 東京 café",
		"Éé ÉÉ éÉ",
		"ſtreet Kelvin K", // runes whose case-fold crosses into ASCII
		"user_99 mixed123 __ 99",
		"\xff\xfe broken \xc3 utf8",
		strings.Repeat("name age city ", 30),
		// Word-mask tokenizer edges: 8- and 9-byte tokens sharing a
		// prefix, tokens straddling the 8-byte boundaries, a document
		// ending exactly on one, a non-ASCII byte first met after the first
		// word, uppercase at each byte of an 8-byte key, and the bytes just
		// outside each word-character range.
		"password passwords PASSWORD Passwords",
		"x password y passwords z",
		"   address  addresses",
		"name age",
		"name age city st",
		"phone email é name",
		strings.Repeat("name ", 4) + "東京",
		"Password pAssword paSsword pasSword passWord passwOrd passwoRd passworD",
		"a/b a:b a@b a[b a\\b a`b a{b a_b /0/ :9: @A@ [Z[ `a` {z{ __",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		wantTokens := len(tfidf.Tokenize(doc))
		for ci, clf := range clfs {
			var r Result
			clf.ScoreInto(doc, &r)
			ref := clf.ScoreReference(doc)
			if math.Float64bits(r.Score) != math.Float64bits(ref) {
				t.Fatalf("clf %d doc %q: fused margin %v (bits %x) != reference %v (bits %x)",
					ci, doc, r.Score, math.Float64bits(r.Score), ref, math.Float64bits(ref))
			}
			if r.Tokens != wantTokens {
				t.Fatalf("clf %d doc %q: fused tokens %d != %d", ci, doc, r.Tokens, wantTokens)
			}
			wantDox := ref >= 0 && !(clf.minTokens > 0 && wantTokens < clf.minTokens)
			if r.IsDox != wantDox {
				t.Fatalf("clf %d doc %q: fused verdict %v != reference %v", ci, doc, r.IsDox, wantDox)
			}
		}
	})
}

// TestReferenceKernelOption pins the ReferenceKernel escape hatch: both
// kernels agree bit for bit through the public API, single and batch.
func TestReferenceKernelOption(t *testing.T) {
	exs := paperExamples(t)[:900]
	var docs []string
	var labels []bool
	for _, ex := range exs {
		docs = append(docs, ex.Body)
		labels = append(labels, ex.IsDox)
	}
	fused, err := Train(rand.New(rand.NewSource(11)), docs, labels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Train(rand.New(rand.NewSource(11)), docs, labels, Options{ReferenceKernel: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.reference || fused.reference {
		t.Fatal("ReferenceKernel option not wired through Train")
	}
	probe := docs[:300]
	fusedRes := make([]Result, len(probe))
	refRes := make([]Result, len(probe))
	fused.ScoreBatchInto(probe, fusedRes, 4)
	ref.ScoreBatchInto(probe, refRes, 4)
	for i := range probe {
		if math.Float64bits(fusedRes[i].Score) != math.Float64bits(refRes[i].Score) ||
			fusedRes[i].Tokens != refRes[i].Tokens ||
			fusedRes[i].IsDox != refRes[i].IsDox {
			t.Fatalf("doc %d: fused %+v != reference %+v", i, fusedRes[i], refRes[i])
		}
	}
}

// TestScoreBatchIntoShortOut guards the out-slice length contract.
func TestScoreBatchIntoShortOut(t *testing.T) {
	exs := paperExamples(t)[:600]
	var docs []string
	var labels []bool
	for _, ex := range exs {
		docs = append(docs, ex.Body)
		labels = append(labels, ex.IsDox)
	}
	clf, err := Train(rand.New(rand.NewSource(12)), docs, labels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short out slice accepted")
		}
	}()
	clf.ScoreBatchInto([]string{"a", "b"}, make([]Result, 1), 1)
}

// FuzzLoad feeds arbitrary bytes to Load, the parser behind doxdetect
// -model. Every input must either fail to load or yield a classifier that
// scores a fixed document set, fused and reference paths alike, without
// panicking.
func FuzzLoad(f *testing.F) {
	for _, clf := range fuzzClassifiers(f) {
		var buf bytes.Buffer
		if err := clf.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, p := range []persisted{
		{Vocab: map[string]int{"ab": 5}, IDF: []float64{1}, Weights: []float64{1}},
		{Vocab: map[string]int{"ab": -1}, IDF: []float64{1}, Weights: []float64{1}},
		{Vocab: map[string]int{"ab": 0, "cd": 0}, IDF: []float64{1, 1}, Weights: []float64{1, 1}},
		{Vocab: map[string]int{"name": 0, "address": 1}, IDF: []float64{1, 2}, Weights: []float64{0.5}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("not a gob stream"))
	docs := []string{
		"",
		"ab cd",
		"name john smith address 12 main st phone 555 0100",
		"café 東京 résumé user_99 MIXED123",
		strings.Repeat("victim info leak account password ", 6),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		clf, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, doc := range docs {
			var r Result
			clf.ScoreInto(doc, &r)
			_ = clf.ScoreReference(doc)
		}
		_ = clf.ScoreBatch(docs, 2)
	})
}
