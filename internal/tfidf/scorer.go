// Fused zero-allocation inference kernel. A Scorer runs the whole
// per-document funnel — tokenize → TF accumulation → IDF weighting → L2
// normalization → dense weight-vector dot product — over the input bytes,
// without materializing per-token strings, a term-count map, or a sparse
// Vector. It is the hot path behind classifier.ScoreInto; the
// Transform/Decision pair stays as the reference implementation, and the
// two are bit-identical as float64 (enforced by unit, property, fuzz,
// corpus-wide and whole-study equivalence tests).
//
// Equivalence contract, operation by operation:
//
//   - Tokens are maximal runs of Unicode word characters with rune length
//     >= 2, lowercased rune-wise — exactly Tokenize's semantics, including
//     the multibyte rune-vs-byte length rule. The word-mask path handles
//     all-ASCII documents, where runes are bytes and lowercasing is ASCII
//     only; any other document takes the rune path, which applies
//     unicode.ToLower, what strings.ToLower does per rune (tokens.go).
//   - Each token is probed in the vocabulary table, the Vectorizer's one
//     vocabulary representation, which Transform probes too (table.go).
//   - Term frequencies accumulate as integer counts in a dense scratch
//     array indexed by term id; a count is converted to float64 exactly,
//     so it equals the reference's float64 increments.
//   - Every count also sets bits in a two-level bitmap over term ids.
//     Walking it word by word, lowest set bit first, visits the touched
//     ids in ascending order, so the norm and dot accumulate in exactly
//     the index order the reference path uses after its sort.Slice.
//   - Every float64 expression mirrors the reference: value = tf*idf
//     (or (1+ln tf)*idf), normSq += value*value, norm = Sqrt(normSq),
//     contribution = weights[idx] * (value/norm). Same operands, same
//     order, same rounding.
//
// A Scorer owns reusable scratch and is NOT safe for concurrent use; hand
// one to each worker (classifier.Classifier keeps a sync.Pool).
package tfidf

import (
	"math"
	"math/bits"
)

// Scorer is a reusable fused-inference kernel bound to a fitted
// Vectorizer. Create one per worker with NewScorer.
type Scorer struct {
	vz *Vectorizer
	z  tokenizer

	counts  []uint32  // dense term counts, indexed by term id
	lo      []uint64  // bit id set when counts[id] > 0
	hi      []uint64  // bit w set when lo[w] != 0
	touched []int     // touched ids in ascending order, filled by walk
	values  []float64 // values[i] is the TF-IDF value of touched[i]
	bigram  []byte    // bigram key scratch ("prev cur")
}

// NewScorer returns a fused-inference kernel over the fitted vocabulary.
// The scorer holds a dense count scratch of VocabSize entries; share the
// Vectorizer, not the Scorer, across goroutines.
func (vz *Vectorizer) NewScorer() *Scorer {
	s := &Scorer{
		vz:      vz,
		touched: make([]int, 0, 256),
		values:  make([]float64, 0, 256),
		bigram:  make([]byte, 0, 128),
	}
	s.z.keys = make([]tokKey, 0, 256)
	s.z.tok = make([]byte, 0, 64)
	s.size()
	return s
}

// size fits the dense scratch to the vectorizer's vocabulary. It only
// reallocates for a scorer built before the vectorizer was fitted (a
// pooled pre-fit scorer).
func (s *Scorer) size() {
	if n := len(s.vz.idf); len(s.counts) != n {
		s.counts = make([]uint32, n)
		s.lo = make([]uint64, (n+63)/64)
		s.hi = make([]uint64, (len(s.lo)+63)/64)
	}
}

// collect tokenizes doc and counts its in-vocabulary terms, plus adjacent
// bigrams when the vectorizer was fitted with Bigrams. Every token key
// exists before the first probe, so the probe loop does nothing else.
func (s *Scorer) collect(doc string) {
	s.size()
	s.z.scan(doc)
	t := &s.vz.table
	for _, k := range s.z.keys {
		var id int
		if k.n <= shortKey {
			id = t.findShort(k.key, k.n)
		} else {
			term := s.z.long[k.key : k.key+uint64(k.n)]
			id = findLong(t, term, hashKey(term))
		}
		if id >= 0 {
			s.touch(id)
		}
	}
	if s.vz.opts.Bigrams {
		for i := 1; i < len(s.z.keys); i++ {
			s.bigram = s.z.appendTerm(s.bigram[:0], s.z.keys[i-1])
			s.bigram = append(s.bigram, ' ')
			s.bigram = s.z.appendTerm(s.bigram, s.z.keys[i])
			if id := lookup(t, s.bigram); id >= 0 {
				s.touch(id)
			}
		}
	}
}

// touch counts one occurrence of term id. Setting the bitmap bits
// unconditionally is idempotent and spares a branch that goes either way
// on roughly every other token.
func (s *Scorer) touch(id int) {
	s.lo[id>>6] |= 1 << (id & 63)
	s.hi[id>>12] |= 1 << ((id >> 6) & 63)
	s.counts[id]++
}

// walk drains the bitmap in ascending id order into touched and values,
// computing each value as Transform does and leaving the counts and the
// bitmap zeroed for the next document. It returns the squared L2 norm,
// accumulated in ascending id order.
func (s *Scorer) walk() (normSq float64) {
	s.touched, s.values = s.touched[:0], s.values[:0]
	sublinear, idf := s.vz.opts.SublinearTF, s.vz.idf
	for hw, h := range s.hi {
		if h == 0 {
			continue
		}
		s.hi[hw] = 0
		for ; h != 0; h &= h - 1 {
			lw := hw<<6 | bits.TrailingZeros64(h)
			l := s.lo[lw]
			s.lo[lw] = 0
			for ; l != 0; l &= l - 1 {
				id := lw<<6 | bits.TrailingZeros64(l)
				tf := float64(s.counts[id])
				s.counts[id] = 0
				if sublinear {
					tf = 1 + math.Log(tf)
				}
				v := tf * idf[id]
				normSq += v * v
				s.touched = append(s.touched, id)
				s.values = append(s.values, v)
			}
		}
	}
	return normSq
}

// TokenCount returns the document's unigram token count — identical to
// len(Tokenize(doc)) — without allocating.
func (s *Scorer) TokenCount(doc string) int {
	s.z.scan(doc)
	return len(s.z.keys)
}

// DotNormalized computes the inner product of the document's L2-normalized
// TF-IDF vector with the dense weight vector, plus the document's unigram
// token count, with zero steady-state allocations. The result is
// bit-identical to weightsDot(vz.Transform(doc)): same token set, same
// accumulation order, same float64 operations.
func (s *Scorer) DotNormalized(doc string, weights []float64) (dot float64, tokens int) {
	s.collect(doc)
	// Mirror the reference exactly: Transform normalizes only when the
	// norm is positive (an empty vector keeps norm 0 and dot 0).
	norm := math.Sqrt(s.walk())
	for i, idx := range s.touched {
		v := s.values[i]
		if norm > 0 {
			v /= norm
		}
		if idx < len(weights) {
			dot += weights[idx] * v
		}
	}
	return dot, len(s.z.keys)
}

// Vector materializes the document's normalized TF-IDF vector through the
// fused scratch. The result is bit-identical to vz.Transform(doc): same
// token set, same per-feature value expression, and the norm accumulates in
// ascending index order exactly as the reference does after its sort. Only
// the returned Vector allocates.
func (s *Scorer) Vector(doc string) Vector {
	s.collect(doc)
	s.walk()
	vec := make(Vector, len(s.touched))
	for i, idx := range s.touched {
		vec[i] = Feature{Index: idx, Value: s.values[i]}
	}
	if n := vec.Norm(); n > 0 {
		for i := range vec {
			vec[i].Value /= n
		}
	}
	return vec
}
