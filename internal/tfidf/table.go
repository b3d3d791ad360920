package tfidf

import (
	"fmt"
	"math"
	"math/bits"
)

// The fitted vocabulary lives in one flat, pointer-free, open-addressed
// table. Every slot is 16 bytes. A term of at most shortKey bytes is
// stored packed in the slot (its bytes little-endian in a uint64, zero
// padded), so a hit costs one slot read and one compare and never touches
// a second memory line. A longer term stores the high 32 bits of its hash
// beside its offset into a byte arena; the arena holds the long terms
// back to back in term-id order and is only read to confirm a hash match.
//
// Packing is injective on short terms. No term contains a zero byte
// (tokens are runs of word characters, bigrams add one space, and UTF-8
// encodes every non-NUL rune without zero bytes), so the zero padding
// cannot be confused with a term byte; the slot also stores the length and
// a probe compares it, which keeps even a restored term holding a NUL
// apart from its prefix. Long and short slots never match each other
// because their lengths differ.

// shortKey is the longest term, in bytes, stored packed in its slot.
const shortKey = 8

// slot is one table entry.
type slot struct {
	key uint64 // packed term (n <= shortKey), or hash&^0xffffffff | arena offset
	id  uint32 // term id + 1; 0 marks an empty slot
	n   uint32 // term length in bytes
}

// vocabTable maps vocabulary terms to their ids with linear probing.
type vocabTable struct {
	slots []slot
	arena []byte // long terms, concatenated in term-id order
}

// Multipliers for the slot hash: the 64-bit golden ratio, and the second
// murmur3 finalizer constant for the long-key avalanche.
const (
	mulGolden = 0x9e3779b97f4a7c15
	mulMix    = 0xc4ceb9fe1a85ec53
)

// tableCapacity is the slot count for a vocabulary of n terms. A load
// factor of at most two thirds keeps the expected probe near two slots
// for a hit and five for a miss, mostly within the home slot's cache line,
// at 24 bytes of table per term; a half-full table measured no faster on
// corpus documents and costs a third more memory.
func tableCapacity(n int) int { return n + n/2 + 1 }

// buildTable indexes terms by their position in the slice. capacity must
// exceed len(terms) so that every probe chain ends at an empty slot;
// production callers pass tableCapacity(len(terms)). It fails only when
// the long terms overflow the arena's 32-bit offsets.
func buildTable(terms []string, capacity int) (vocabTable, error) {
	if capacity <= len(terms) {
		panic(fmt.Sprintf("tfidf: table capacity %d for %d terms", capacity, len(terms)))
	}
	long := 0
	for _, term := range terms {
		if len(term) > shortKey {
			long += len(term)
		}
	}
	if long > math.MaxUint32 {
		return vocabTable{}, fmt.Errorf("tfidf: %d bytes of long terms overflow the 4 GiB arena", long)
	}
	t := vocabTable{slots: make([]slot, capacity), arena: make([]byte, 0, long)}
	for id, term := range terms {
		s := slot{id: uint32(id) + 1, n: uint32(len(term))}
		var i int
		if len(term) <= shortKey {
			s.key = packKey(term)
			i = t.home(s.key * mulGolden)
		} else {
			h := hashKey(term)
			s.key = h&^0xffffffff | uint64(len(t.arena))
			t.arena = append(t.arena, term...)
			i = t.home(h)
		}
		for t.slots[i].id != 0 {
			if i++; i == len(t.slots) {
				i = 0
			}
		}
		t.slots[i] = s
	}
	return t, nil
}

// home maps a 64-bit hash onto a slot index by multiply-shift range
// reduction, which needs no power-of-two capacity.
func (t *vocabTable) home(h uint64) int {
	hi, _ := bits.Mul64(h, uint64(len(t.slots)))
	return int(hi)
}

// findShort returns the id of the packed term key of n bytes, or -1.
func (t *vocabTable) findShort(key uint64, n uint32) int {
	i := t.home(key * mulGolden)
	for {
		s := &t.slots[i]
		if s.id == 0 {
			return -1
		}
		if s.key == key && s.n == n {
			return int(s.id) - 1
		}
		if i++; i == len(t.slots) {
			i = 0
		}
	}
}

// findLong returns the id of a term longer than shortKey bytes whose
// hashKey is h, or -1.
func findLong[T ~string | ~[]byte](t *vocabTable, term T, h uint64) int {
	n := uint32(len(term))
	i := t.home(h)
	for {
		s := &t.slots[i]
		if s.id == 0 {
			return -1
		}
		if s.n == n && s.key>>32 == h>>32 {
			off := uint32(s.key)
			if string(t.arena[off:off+n]) == string(term) {
				return int(s.id) - 1
			}
		}
		if i++; i == len(t.slots) {
			i = 0
		}
	}
}

// lookup returns term's id, or -1 when it is not in the vocabulary.
func lookup[T ~string | ~[]byte](t *vocabTable, term T) int {
	if len(term) <= shortKey {
		return t.findShort(packKey(term), uint32(len(term)))
	}
	return findLong(t, term, hashKey(term))
}

// terms returns the vocabulary as a freshly allocated term → id map.
func (t *vocabTable) terms() map[string]int {
	m := make(map[string]int, len(t.slots)/2)
	var buf [shortKey]byte
	for _, s := range t.slots {
		if s.id == 0 {
			continue
		}
		var term string
		if s.n <= shortKey {
			term = string(unpackKey(buf[:0], s.key, s.n))
		} else {
			off := uint32(s.key)
			term = string(t.arena[off : off+s.n])
		}
		m[term] = int(s.id) - 1
	}
	return m
}

// packKey packs a term of at most shortKey bytes little-endian into a
// uint64, zero padded.
func packKey[T ~string | ~[]byte](b T) uint64 {
	var k uint64
	for i := len(b) - 1; i >= 0; i-- {
		k = k<<8 | uint64(b[i])
	}
	return k
}

// unpackKey appends the n bytes packed in key to dst.
func unpackKey(dst []byte, key uint64, n uint32) []byte {
	for ; n > 0; n-- {
		dst = append(dst, byte(key))
		key >>= 8
	}
	return dst
}

// hashKey hashes a term longer than shortKey bytes, eight bytes a step.
func hashKey[T ~string | ~[]byte](b T) uint64 {
	h := uint64(len(b)) * mulGolden
	i := 0
	for ; i+8 <= len(b); i += 8 {
		w := b[i : i+8]
		h = bits.RotateLeft64((h^(uint64(w[0])|uint64(w[1])<<8|uint64(w[2])<<16|uint64(w[3])<<24|
			uint64(w[4])<<32|uint64(w[5])<<40|uint64(w[6])<<48|uint64(w[7])<<56))*mulGolden, 31)
	}
	h = (h ^ packKey(b[i:])) * mulMix
	h ^= h >> 32
	h *= mulGolden
	return h ^ h>>29
}
