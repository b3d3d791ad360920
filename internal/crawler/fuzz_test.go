package crawler

import (
	"errors"
	"reflect"
	"slices"
	"testing"
)

// Fuzz targets for the crawler's three byte-level parsers. A live crawl
// feeds these functions whatever a faulting, truncating, corrupting
// network delivers, so the contract under fuzzing is total safety: no
// panic on any input, errors always wrap ErrCorruptPayload, and parsing is
// deterministic (same bytes, same result). The pollers decode into reused
// targets, so each target also checks that the Into form over a target
// still holding an earlier, fully populated decode equals a fresh parse.

func fuzzSeeds(f *testing.F, seeds ...string) {
	f.Helper()
	for _, s := range seeds {
		f.Add([]byte(s))
	}
}

// Earlier decodes the dirty targets start from: every field of every
// element set, more elements than most fuzz inputs carry.
const (
	dirtyListing = `[{"key":"k1","title":"stale","date":1},{"key":"k2","title":"stale","date":2},{"key":"k3","title":"stale","date":3}]`
	dirtyCatalog = `[{"page":7,"threads":[{"no":1,"last_modified":9},{"no":2,"last_modified":9}]},{"page":8,"threads":[{"no":3,"last_modified":9},{"no":4,"last_modified":9},{"no":5,"last_modified":9}]}]`
	dirtyThread  = `{"posts":[{"no":1,"time":9,"com":"stale"},{"no":2,"time":9,"com":"stale"},{"no":3,"time":9,"com":"stale"}]}`
)

func FuzzParseListing(f *testing.F) {
	fuzzSeeds(f,
		`[]`,
		`[{"key":"abc123","title":"dox","date":1468800000}]`,
		`[{"key":"abc123","title":"dox","date":`, // truncated mid-value
		`[{"key":"abc123"},{`,                    // truncated mid-object
		"\x00\x1finjected-corruption 00000000 {{{",
		`{"key":"not-an-array"}`,
		`[{"key":1,"date":"backwards-types"}]`,
	)
	f.Fuzz(func(t *testing.T, raw []byte) {
		page, err := parseListing(raw)
		if err != nil && !errors.Is(err, ErrCorruptPayload) {
			t.Fatalf("parse error does not wrap ErrCorruptPayload: %v", err)
		}
		if err != nil && page != nil {
			t.Fatal("failed parse returned a partial listing")
		}
		again, err2 := parseListing(raw)
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(page, again) {
			t.Fatal("parseListing not deterministic")
		}
		dirty, derr := parseListingInto([]byte(dirtyListing), nil)
		if derr != nil {
			t.Fatal(derr)
		}
		into, err3 := parseListingInto(raw, dirty)
		if (err == nil) != (err3 == nil) || (err == nil && !slices.Equal(page, into)) {
			t.Fatalf("parseListingInto over a dirty target = %+v, fresh parse %+v", into, page)
		}
	})
}

func FuzzParseCatalog(f *testing.F) {
	fuzzSeeds(f,
		`[]`,
		`[{"page":0,"threads":[{"no":1,"last_modified":10}]}]`,
		`[{"page":0,"threads":[{"no":1,"last_mod`, // truncated mid-key
		`[{"page":"zero"}]`,
		"\xff\xfe\xfd",
		`[[[[[[`,
	)
	f.Fuzz(func(t *testing.T, raw []byte) {
		pages, err := parseCatalog(raw)
		if err != nil && !errors.Is(err, ErrCorruptPayload) {
			t.Fatalf("parse error does not wrap ErrCorruptPayload: %v", err)
		}
		again, err2 := parseCatalog(raw)
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(pages, again) {
			t.Fatal("parseCatalog not deterministic")
		}
		dirty, derr := parseCatalogInto([]byte(dirtyCatalog), nil)
		if derr != nil {
			t.Fatal(derr)
		}
		into, err3 := parseCatalogInto(raw, dirty)
		samePage := func(a, b catalogPage) bool { return a.Page == b.Page && slices.Equal(a.Threads, b.Threads) }
		if (err == nil) != (err3 == nil) || (err == nil && !slices.EqualFunc(pages, into, samePage)) {
			t.Fatalf("parseCatalogInto over a dirty target = %+v, fresh parse %+v", into, pages)
		}
	})
}

func FuzzParseThread(f *testing.F) {
	fuzzSeeds(f,
		`{"posts":[]}`,
		`{"posts":[{"no":101,"time":5,"com":"<b>hi</b>"}]}`,
		`{"posts":[{"no":101,"time":5,"com":"tru`, // truncated mid-string
		`{"posts":{"no":101}}`,
		`null`,
		"{",
	)
	f.Fuzz(func(t *testing.T, raw []byte) {
		tj, err := parseThread(raw)
		if err != nil && !errors.Is(err, ErrCorruptPayload) {
			t.Fatalf("parse error does not wrap ErrCorruptPayload: %v", err)
		}
		if err != nil && len(tj.Posts) != 0 {
			t.Fatal("failed parse returned partial posts")
		}
		again, err2 := parseThread(raw)
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(tj, again) {
			t.Fatal("parseThread not deterministic")
		}
		var dirty threadJSON
		if derr := parseThreadInto([]byte(dirtyThread), &dirty); derr != nil {
			t.Fatal(derr)
		}
		err3 := parseThreadInto(raw, &dirty)
		if (err == nil) != (err3 == nil) || (err == nil && !slices.Equal(tj.Posts, dirty.Posts)) {
			t.Fatalf("parseThreadInto over a dirty target = %+v, fresh parse %+v", dirty.Posts, tj.Posts)
		}
		// The validator view must agree with the parser.
		if verr := validThread(raw); (verr == nil) != (err == nil) {
			t.Fatal("validThread disagrees with parseThread")
		}
	})
}

// FuzzParseRetryAfter hardens the header parser: arbitrary header bytes
// must never panic or produce a negative delay.
func FuzzParseRetryAfter(f *testing.F) {
	for _, s := range []string{"3", "0.25", "-1", "NaN", "Inf", "1e99", "Wed, 21 Oct 2015 07:28:00 GMT", "garbage", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		d, ok := parseRetryAfter(v)
		if d < 0 {
			t.Fatalf("parseRetryAfter(%q) returned negative delay %v", v, d)
		}
		if !ok && d != 0 {
			t.Fatalf("parseRetryAfter(%q) = (%v, false), want zero delay when not ok", v, d)
		}
	})
}
