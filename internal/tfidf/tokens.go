package tfidf

import (
	"encoding/binary"
	"math/bits"
	"unicode"
	"unicode/utf8"
)

// One tokenizer serves Fit, TokenCount, Vector and DotNormalized. It turns
// a document into a list of token keys: a token of at most shortKey bytes
// becomes its lowercased bytes packed into a uint64 (the vocabulary table's
// own key form), a longer token is copied lowercased into a side buffer.
// Producing every key before any table probe keeps the scan a tight loop
// and leaves the probes independent of each other, so their cache misses
// overlap.
//
// An all-ASCII document takes the word-mask path: eight bytes per step are
// classified with 64-bit arithmetic (SWAR, "SIMD within a register"), token
// runs are read off the mask with bits.TrailingZeros64, and a short token is
// loaded from the document and lowercased as one uint64. A document holding
// any byte >= 0x80 is rescanned from the start by the rune path, eachToken,
// which implements Tokenize's Unicode semantics byte for byte.

// tokKey is one token as the probe loop sees it.
type tokKey struct {
	key uint64 // packed bytes when n <= shortKey, else offset into tokenizer.long
	n   uint32 // token length in bytes
}

// tokenizer is reusable token-key scratch; not safe for concurrent use.
type tokenizer struct {
	keys []tokKey // the last document's tokens, in order
	long []byte   // lowercased bytes of the tokens longer than shortKey
	tok  []byte   // rune-path token scratch
}

// scan replaces z.keys with doc's tokens.
func (z *tokenizer) scan(doc string) {
	z.keys, z.long = z.keys[:0], z.long[:0]
	if z.scanASCII(doc) {
		return
	}
	z.keys, z.long = z.keys[:0], z.long[:0]
	z.tok = eachToken(doc, z.tok, z.add)
}

// add appends one lowercased token from the rune path.
func (z *tokenizer) add(tok []byte) {
	if len(tok) <= shortKey {
		z.keys = append(z.keys, tokKey{key: packKey(tok), n: uint32(len(tok))})
		return
	}
	z.keys = append(z.keys, tokKey{key: uint64(len(z.long)), n: uint32(len(tok))})
	z.long = append(z.long, tok...)
}

// appendTerm appends the bytes of token k to dst.
func (z *tokenizer) appendTerm(dst []byte, k tokKey) []byte {
	if k.n <= shortKey {
		return unpackKey(dst, k.key, k.n)
	}
	return append(dst, z.long[k.key:k.key+uint64(k.n)]...)
}

// Word-mask constants: one bit per byte lane.
const (
	lanes01 = 0x0101010101010101
	lanes80 = 0x8080808080808080
)

// geLanes sets the high bit of every byte lane of w that is >= c. Every
// lane must be below 0x80, so adding 0x80-c never carries into the next
// lane.
func geLanes(w uint64, c byte) uint64 { return (w + (0x80-uint64(c))*lanes01) & lanes80 }

// gtLanes sets the high bit of every byte lane of w that is > c, under the
// same precondition.
func gtLanes(w uint64, c byte) uint64 { return (w + (0x7f-uint64(c))*lanes01) & lanes80 }

// wordLanes sets the high bit of every lane of the ASCII word w holding a
// word character: [0-9A-Za-z_]. Letters are tested after folding bit 0x20
// in, which maps [A-Z] onto [a-z]; the bytes the fold also moves ('@' '['
// '\' ']' '^' '_') land outside [a-z], and '_' gets its own equality test.
func wordLanes(w uint64) uint64 {
	digit := geLanes(w, '0') &^ gtLanes(w, '9')
	f := w | 0x20*lanes01
	letter := geLanes(f, 'a') &^ gtLanes(f, 'z')
	// A lane of w^'_' is 0 exactly at '_'; adding 0x7f sets the high bit
	// of every other lane.
	under := ^(w ^ '_'*lanes01 + 0x7f*lanes01) & lanes80
	return digit | letter | under
}

// lowerASCII lowercases the ASCII letters of a packed word.
func lowerASCII(w uint64) uint64 {
	return w | (geLanes(w, 'A')&^gtLanes(w, 'Z'))>>2
}

// le64 reads the first eight bytes of s little-endian; the compiler turns
// it into one load.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// scanASCII is the word-mask path. It returns false, with z.keys and
// z.long in an unspecified state, as soon as it meets a byte >= 0x80.
//
// For each eight-byte word it builds the word-character lane mask m, then
// the mask of lanes whose predecessor is a word character (m shifted up a
// lane, with the previous word's top lane carried in). A token starts at a
// lane in m but not in prev and ends at a lane in prev but not in m. The
// last, partial word is zero padded, and a zero lane is not a word
// character, so the padding ends a trailing token; a document ending
// exactly on a word boundary leaves the carry set, and the final flush
// ends its token.
func (z *tokenizer) scanASCII(doc string) bool {
	keys := z.keys
	start := 0
	var carry uint64 // top lane of the previous word's mask, moved to lane 0
	for base := 0; base < len(doc); base += 8 {
		var w uint64
		if base+8 <= len(doc) {
			w = le64(doc[base:])
		} else {
			w = packKey(doc[base:])
		}
		if w&lanes80 != 0 {
			return false
		}
		m := wordLanes(w)
		prev := m<<8 | carry
		carry = m >> 56
		starts := m &^ prev
		for ev := starts | prev&^m; ev != 0; ev &= ev - 1 {
			p := bits.TrailingZeros64(ev)
			at := base + p>>3
			switch n := at - start; {
			case starts&(1<<p) != 0:
				start = at
			case n < 2:
			case n <= shortKey && start+8 <= len(doc):
				// The common case, inline: one load, mask, lowercase.
				key := le64(doc[start:]) & (^uint64(0) >> (64 - 8*n))
				keys = append(keys, tokKey{key: lowerASCII(key), n: uint32(n)})
			default:
				keys = z.emitASCII(keys, doc, start, n)
			}
		}
	}
	if n := len(doc) - start; carry != 0 && n >= 2 {
		keys = z.emitASCII(keys, doc, start, n)
	}
	z.keys = keys
	return true
}

// emitASCII appends the key of the ASCII token doc[start:start+n], n >= 2,
// to keys. A long token is copied into z.long eight bytes a step, each
// word lowercased as a whole; the bytes read past the token are cut off.
func (z *tokenizer) emitASCII(keys []tokKey, doc string, start, n int) []tokKey {
	if n <= shortKey {
		return append(keys, tokKey{key: lowerASCII(load8(doc, start)) & (^uint64(0) >> (64 - 8*n)), n: uint32(n)})
	}
	off := len(z.long)
	for i := start; i < start+n; i += 8 {
		z.long = binary.LittleEndian.AppendUint64(z.long, lowerASCII(load8(doc, i)))
	}
	z.long = z.long[:off+n]
	return append(keys, tokKey{key: uint64(off), n: uint32(n)})
}

// load8 reads doc[i:i+8] little-endian, zero padding past the end of doc.
func load8(doc string, i int) uint64 {
	if i+8 <= len(doc) {
		return le64(doc[i:])
	}
	return packKey(doc[i:])
}

// asciiWordLower maps an ASCII byte to its lowercased form if it is a word
// character ([0-9A-Za-z_]), else 0.
var asciiWordLower [128]byte

func init() {
	for b := byte('0'); b <= '9'; b++ {
		asciiWordLower[b] = b
	}
	for b := byte('a'); b <= 'z'; b++ {
		asciiWordLower[b] = b
	}
	for b := byte('A'); b <= 'Z'; b++ {
		asciiWordLower[b] = b + ('a' - 'A')
	}
	asciiWordLower['_'] = '_'
}

// eachToken is the rune path. ASCII word bytes take the table fast path;
// anything else falls back to rune decoding so the \w\w+ rune-length
// semantics match Tokenize exactly, including the multibyte rune-vs-byte
// length rule (invalid UTF-8 decodes to RuneError, which is not a word
// character — the same separator behaviour a range loop gives the reference
// tokenizer). fn receives each token's lowercased bytes in a scratch slice
// valid only for the duration of the call; buf is the reusable scratch,
// returned (possibly grown) for the caller to keep. fn must not retain or
// let its argument escape, or the whole pass allocates.
func eachToken(doc string, buf []byte, fn func(tok []byte)) []byte {
	tokRunes := 0
	tok := buf[:0]
	flush := func() {
		if tokRunes >= 2 {
			fn(tok)
		}
		tokRunes = 0
		tok = tok[:0]
	}
	for i := 0; i < len(doc); {
		if b := doc[i]; b < utf8.RuneSelf {
			if c := asciiWordLower[b]; c != 0 {
				tok = append(tok, c)
				tokRunes++
			} else if tokRunes > 0 {
				flush()
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(doc[i:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			tok = utf8.AppendRune(tok, unicode.ToLower(r))
			tokRunes++
		} else if tokRunes > 0 {
			flush()
		}
		i += size
	}
	flush()
	return tok
}
