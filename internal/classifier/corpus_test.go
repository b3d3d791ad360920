package classifier

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"doxmeter/internal/htmltext"
	"doxmeter/internal/sgd"
	"doxmeter/internal/sim"
	"doxmeter/internal/textgen"
	"doxmeter/internal/tfidf"
)

// mapOracle scores a document the way the reference path did before the
// vocabulary table existed: Tokenize, a plain Go map taken from Snapshot,
// a sorted sparse vector, then sgd.Decision. It shares no probe or
// tokenizer code with the fused kernel, or with Transform's table lookup.
type mapOracle struct {
	clf   *Classifier
	vocab map[string]int
	idf   []float64
	opts  tfidf.Options
}

func newMapOracle(clf *Classifier) mapOracle {
	vocab, idf, _, opts := clf.vec.Snapshot()
	return mapOracle{clf: clf, vocab: vocab, idf: idf, opts: opts}
}

func (o mapOracle) score(doc string) float64 {
	toks := tfidf.Tokenize(doc)
	terms := toks
	if o.opts.Bigrams {
		for i := 0; i+1 < len(toks); i++ {
			terms = append(terms, toks[i]+" "+toks[i+1])
		}
	}
	counts := make(map[int]float64)
	for _, t := range terms {
		if idx, ok := o.vocab[t]; ok {
			counts[idx]++
		}
	}
	vec := make(tfidf.Vector, 0, len(counts))
	for idx, tf := range counts {
		if o.opts.SublinearTF {
			tf = 1 + math.Log(tf)
		}
		vec = append(vec, tfidf.Feature{Index: idx, Value: tf * o.idf[idx]})
	}
	sort.Slice(vec, func(i, j int) bool { return vec[i].Index < vec[j].Index })
	if n := vec.Norm(); n > 0 {
		for i := range vec {
			vec[i].Value /= n
		}
	}
	return o.clf.model.Decision(vec) - o.clf.threshold
}

// TestKernelMatchesOracleOnCorpus runs every body of the study corpus at
// the core tests' scale (seed 7, scale 0.02), converted to text as the
// prepare stage converts it, through the fused kernel. Each margin must
// equal ScoreReference and the map oracle bit for bit, and each token
// count len(tfidf.Tokenize). The {Bigrams, SublinearTF} ablation runs on
// every seventh document.
func TestKernelMatchesOracleOnCorpus(t *testing.T) {
	g := textgen.New(sim.NewWorld(sim.Default(7, 0.02)))
	var train []string
	var labels []bool
	for _, ex := range g.TrainingSet() {
		train = append(train, ex.Body)
		labels = append(labels, ex.IsDox)
	}
	c := g.Corpus()
	var texts []string
	nonASCII := 0
	for _, site := range textgen.AllSites() {
		for _, d := range c.Streams[site] {
			text := d.Body
			if d.HTML || htmltext.IsProbablyHTML(text) {
				text = htmltext.Convert(text)
			}
			texts = append(texts, text)
			for i := 0; i < len(text); i++ {
				if text[i] >= 0x80 {
					nonASCII++
					break
				}
			}
		}
	}
	if nonASCII == 0 || nonASCII == len(texts) {
		t.Fatalf("corpus exercises one tokenizer path only: %d of %d texts hold non-ASCII bytes", nonASCII, len(texts))
	}
	t.Logf("%d texts, %d with non-ASCII bytes (rune path)", len(texts), nonASCII)
	for _, tc := range []struct {
		name  string
		opts  tfidf.Options
		every int
	}{
		{"default", tfidf.Options{}, 1},
		{"bigrams+sublinear", tfidf.Options{Bigrams: true, SublinearTF: true}, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clf, err := Train(rand.New(rand.NewSource(7)), train, labels, Options{TFIDF: tc.opts, SGD: sgd.Options{Epochs: 5}})
			if err != nil {
				t.Fatal(err)
			}
			oracle := newMapOracle(clf)
			flagged := 0
			for i := 0; i < len(texts); i += tc.every {
				doc := texts[i]
				var r Result
				clf.ScoreInto(doc, &r)
				want, ref := oracle.score(doc), clf.ScoreReference(doc)
				if math.Float64bits(r.Score) != math.Float64bits(want) || math.Float64bits(ref) != math.Float64bits(want) {
					t.Fatalf("text %d: fused %v, ScoreReference %v, oracle %v", i, r.Score, ref, want)
				}
				if n := len(tfidf.Tokenize(doc)); r.Tokens != n {
					t.Fatalf("text %d: fused tokens %d, Tokenize %d", i, r.Tokens, n)
				}
				if r.IsDox {
					flagged++
				}
			}
			if flagged == 0 {
				t.Fatal("no corpus text flagged: the margins compared are all on one side")
			}
		})
	}
}
