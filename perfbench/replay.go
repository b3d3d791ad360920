package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"doxmeter/internal/classifier"
	"doxmeter/internal/core"
	"doxmeter/internal/crawler"
	"doxmeter/internal/dedup"
	"doxmeter/internal/extract"
	"doxmeter/internal/feed"
	"doxmeter/internal/htmltext"
	"doxmeter/internal/label"
	"doxmeter/internal/notify"
	"doxmeter/internal/sites"
	"doxmeter/internal/stream"
	"doxmeter/internal/textgen"
	"doxmeter/internal/watchlist"
)

// replayStats is what the per-document replay measured, layer by layer.
type replayStats struct {
	docs, sniffed, sniffHits, converted    int
	flagged, unique, exactDups, accntDups  int
	batchFlagged                           int
	sniff, convert, classify, extract      time.Duration
	dedup, label, fanout, prepareBatch     time.Duration
	convertAllocs, classifyAllocs, xAllocs uint64
}

// firstPostNo is the number the simulated boards give the post before
// their first one; posts are numbered consecutively across a site's
// boards, in board-name order, each board's posts in time order.
const firstPostNo = 10_000_000

// boardPosts maps "<crawl site>" → post number → corpus document for one
// board site, following the site's numbering rule. The rule is checked
// against the site's own DocIDForPost on each board's first and last post.
func boardPosts(site *sites.BoardSite, streams map[string]textgen.Site, corpus *textgen.Corpus, out map[string]map[int64]*textgen.Doc) error {
	names := make([]string, 0, len(streams))
	for name := range streams {
		names = append(names, name)
	}
	sort.Strings(names)
	no := int64(firstPostNo)
	for _, name := range names {
		src := corpus.Streams[streams[name]]
		docs := make([]*textgen.Doc, len(src))
		for i := range src {
			docs[i] = &src[i]
		}
		sort.SliceStable(docs, func(i, j int) bool { return docs[i].Posted.Before(docs[j].Posted) })
		posts := make(map[int64]*textgen.Doc, len(docs))
		for _, d := range docs {
			no++
			posts[no] = d
		}
		for _, k := range []int64{no - int64(len(docs)) + 1, no} {
			if id, ok := site.DocIDForPost(name, k); len(docs) > 0 && (!ok || id != posts[k].ID) {
				return fmt.Errorf("replay: board %s post %d is %q on the site, %q by the numbering rule", name, k, id, posts[k].ID)
			}
		}
		out[string(streams[name])] = posts
	}
	return nil
}

// committedDocs rebuilds the exact documents a study committed, as the
// crawlers delivered them, from its CollectedIDs and its corpus, in the
// study's (Posted, Site, ID) commit order.
func committedDocs(s *core.Study) ([]crawler.Doc, error) {
	if s.CollectedIDs == nil {
		return nil, fmt.Errorf("replay: the study did not record its collected IDs")
	}
	corpus := s.Corpus()
	pastes := make(map[string]*textgen.Doc)
	for i := range corpus.Streams[textgen.SitePastebin] {
		d := &corpus.Streams[textgen.SitePastebin][i]
		pastes[d.ID] = d
	}
	posts := make(map[string]map[int64]*textgen.Doc)
	if err := boardPosts(s.Fourchan, map[string]textgen.Site{"b": textgen.SiteFourchanB, "pol": textgen.SiteFourchanPol}, corpus, posts); err != nil {
		return nil, err
	}
	if err := boardPosts(s.Eightch, map[string]textgen.Site{"pol": textgen.SiteEightchPol, "baphomet": textgen.SiteEightchBapho}, corpus, posts); err != nil {
		return nil, err
	}
	docs := make([]crawler.Doc, 0, len(s.CollectedIDs))
	for key, posted := range s.CollectedIDs {
		i := strings.LastIndexByte(key, '/')
		site, id := key[:i], key[i+1:]
		if site == string(textgen.SitePastebin) {
			d, ok := pastes[id]
			if !ok {
				return nil, fmt.Errorf("replay: committed paste %s is not in the corpus", key)
			}
			docs = append(docs, crawler.Doc{Site: site, ID: id, Title: d.Title, Body: d.Body, Posted: posted})
			continue
		}
		j := strings.LastIndexByte(id, '-')
		no, err := strconv.ParseInt(id[j+1:], 10, 64)
		d := posts[site][no]
		if j < 0 || err != nil || d == nil {
			return nil, fmt.Errorf("replay: committed post %s is not in the corpus", key)
		}
		docs = append(docs, crawler.Doc{Site: site, ID: id, Body: d.Body, HTML: true, Posted: posted})
	}
	sort.Slice(docs, func(i, j int) bool {
		if !docs[i].Posted.Equal(docs[j].Posted) {
			return docs[i].Posted.Before(docs[j].Posted)
		}
		if docs[i].Site != docs[j].Site {
			return docs[i].Site < docs[j].Site
		}
		return docs[i].ID < docs[j].ID
	})
	return docs, nil
}

// replay runs the committed documents of a finished study through the
// public per-document layer functions on one goroutine, one layer at a
// time over the whole set, timing each layer and bracketing its
// allocations. fanout also delivers the unique doxes into fresh
// mitigation services. Finally the study's own PrepareBatch runs over the
// same set, so its cost can be set beside the sum of the layers.
func replay(s *core.Study, fanout bool) (*replayStats, error) {
	docs, err := committedDocs(s)
	if err != nil {
		return nil, err
	}
	if len(docs) != s.Collected {
		return nil, fmt.Errorf("replay: %d distinct documents recorded, %d committed", len(docs), s.Collected)
	}
	st := &replayStats{docs: len(docs)}
	isHTML := make([]bool, len(docs))
	texts := make([]string, len(docs))

	t := time.Now()
	for i := range docs {
		if docs[i].HTML {
			isHTML[i] = true
			continue
		}
		st.sniffed++
		if htmltext.IsProbablyHTML(docs[i].Body) {
			isHTML[i] = true
			st.sniffHits++
		}
	}
	st.sniff = time.Since(t)

	m0, t := readMem(), time.Now()
	for i := range docs {
		texts[i] = docs[i].Body
		if isHTML[i] {
			texts[i] = htmltext.Convert(docs[i].Body)
			st.converted++
		}
	}
	st.convert = time.Since(t)
	st.convertAllocs = readMem().Mallocs - m0.Mallocs

	var flagged []int
	var res classifier.Result
	m0, t = readMem(), time.Now()
	for i := range texts {
		s.Classifier.ScoreInto(texts[i], &res)
		if res.IsDox {
			flagged = append(flagged, i)
		}
	}
	st.classify = time.Since(t)
	st.classifyAllocs = readMem().Mallocs - m0.Mallocs
	st.flagged = len(flagged)

	exts := make([]*extract.Extraction, len(flagged))
	m0, t = readMem(), time.Now()
	for j, i := range flagged {
		exts[j] = extract.ExtractWith(texts[i], s.Cfg.Extract)
	}
	st.extract = time.Since(t)
	st.xAllocs = readMem().Mallocs - m0.Mallocs

	var uniques []int // indexes into flagged
	dd := dedup.New()
	t = time.Now()
	for j, i := range flagged {
		v, _ := dd.Check(docs[i].Site+"/"+docs[i].ID, texts[i], exts[j].AccountSetKey())
		switch v {
		case dedup.Unique:
			uniques = append(uniques, j)
		case dedup.ExactDuplicate:
			st.exactDups++
		case dedup.AccountDuplicate:
			st.accntDups++
		}
	}
	st.dedup = time.Since(t)
	st.unique = len(uniques)

	labels := make([]label.Labels, len(uniques))
	t = time.Now()
	for k, j := range uniques {
		labels[k] = label.Apply(texts[flagged[j]])
	}
	st.label = time.Since(t)

	if fanout {
		dets := make([]stream.Detection, len(uniques))
		for k, j := range uniques {
			d := &docs[flagged[j]]
			dets[k] = stream.Detection{Site: d.Site, DocID: d.ID, SeenAt: d.Posted, Extraction: exts[j]}
			if labels[k].Address {
				dets[k].AddressLine = stream.AddressLine(texts[flagged[j]])
			}
		}
		var now time.Time
		fan := &stream.Fanout{
			Notify:    notify.NewService(feedSalt),
			Watchlist: watchlist.New(0, func() time.Time { return now }),
			Feed:      feed.NewLog(),
		}
		t = time.Now()
		for _, d := range dets {
			now = d.SeenAt
			fan.Deliver(d)
		}
		st.fanout = time.Since(t)
	}

	t = time.Now()
	prepared := s.PrepareBatch(docs, 1)
	st.prepareBatch = time.Since(t)
	for _, p := range prepared {
		if p.IsDox {
			st.batchFlagged++
		}
	}
	return st, nil
}

// reconcile refuses a replay whose verdicts differ from the traced run's:
// the layer rows would then describe different work than was measured.
func (st *replayStats) reconcile(o outcome) error {
	type pair struct {
		name      string
		got, want int
	}
	for _, p := range []pair{
		{"collected", st.docs, o.Collected},
		{"flagged", st.flagged, o.FlaggedP1 + o.FlaggedP2},
		{"flagged by PrepareBatch", st.batchFlagged, o.FlaggedP1 + o.FlaggedP2},
		{"unique", st.unique, o.Unique},
		{"exact duplicates", st.exactDups, o.ExactDups},
		{"account duplicates", st.accntDups, o.AccountDups},
	} {
		if p.got != p.want {
			return fmt.Errorf("replay reconciliation: %s %d, traced run %d", p.name, p.got, p.want)
		}
	}
	return nil
}
