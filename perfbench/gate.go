package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"doxmeter/internal/core"
	"doxmeter/internal/extract"
)

// outcome is what one study run produced, reduced to the values the
// output-correctness gate compares: funnel counts, dedup verdicts, a
// digest over the unique dox records and, for durable runs, the study's
// rolling run digest.
type outcome struct {
	Collected   int    `json:"collected"`
	FlaggedP1   int    `json:"flagged_p1"`
	FlaggedP2   int    `json:"flagged_p2"`
	Unique      int    `json:"unique"`
	ExactDups   int    `json:"exact_dups"`
	AccountDups int    `json:"account_dups"`
	DoxDigest   string `json:"dox_digest"`
	RunDigest   string `json:"run_digest,omitempty"`
}

// doxDigest hashes (DocID, TextDigest, AccountSetKey) of every unique dox
// record in commit order. Restored records keep all three, so a run that
// was stopped and resumed digests the same as one that was not.
func doxDigest(doxes []*core.DoxRecord) string {
	h := sha256.New()
	for _, d := range doxes {
		key := ""
		if d.Extraction != nil {
			key = d.Extraction.AccountSetKey()
		}
		fmt.Fprintf(h, "%s\x00%s\x00%s\n", d.DocID, d.TextDigest, key)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// outcomeOf reads a finished study. durable adds the run digest, which
// only checkpointed studies fold.
func outcomeOf(s *core.Study, durable bool) outcome {
	st := s.Deduper.Stats()
	o := outcome{
		Collected:   s.Collected,
		FlaggedP1:   s.FlaggedByPeriod[1],
		FlaggedP2:   s.FlaggedByPeriod[2],
		Unique:      len(s.Doxes),
		ExactDups:   st.ExactDups,
		AccountDups: st.AccntDups,
		DoxDigest:   doxDigest(s.Doxes),
	}
	if durable {
		o.RunDigest = s.RunDigest()
	}
	return o
}

// recheck verifies a finished study against itself: the funnel adds up,
// and every dox record still holding its text digests to its TextDigest,
// is flagged by the study's classifier and extracts to the same account
// set. Records restored from a checkpoint carry no text and are covered
// by the digest comparison instead.
func recheck(s *core.Study) error {
	st := s.Deduper.Stats()
	flagged := s.FlaggedByPeriod[1] + s.FlaggedByPeriod[2]
	if st.Total() != flagged {
		return fmt.Errorf("dedup saw %d flagged documents, the funnel counts %d", st.Total(), flagged)
	}
	if st.Unique != len(s.Doxes) {
		return fmt.Errorf("dedup issued %d unique verdicts for %d dox records", st.Unique, len(s.Doxes))
	}
	bySite := 0
	for _, n := range s.CollectedBySite {
		bySite += n
	}
	if bySite != s.Collected {
		return fmt.Errorf("collected %d, per-site counts sum to %d", s.Collected, bySite)
	}
	for _, d := range s.Doxes {
		if d.Text == "" {
			continue
		}
		sum := sha256.Sum256([]byte(d.Text))
		if hex.EncodeToString(sum[:]) != d.TextDigest {
			return fmt.Errorf("dox %s/%s: text digest mismatch", d.Site, d.DocID)
		}
		if !s.Classifier.IsDox(d.Text) {
			return fmt.Errorf("dox %s/%s: the study's classifier does not flag its text", d.Site, d.DocID)
		}
		if got, want := extract.ExtractWith(d.Text, s.Cfg.Extract).AccountSetKey(), d.Extraction.AccountSetKey(); got != want {
			return fmt.Errorf("dox %s/%s: re-extraction gives account set %q, record has %q", d.Site, d.DocID, got, want)
		}
	}
	return nil
}

// pinsJSON holds the expected outcome per workload and seed, generated with
// -pin from a build whose outputs were checked (study and service agreeing
// at every pinned seed). Seeds outside the table are still checked for
// self-consistency, determinism across repetitions and, in the traced run,
// by the per-document replay.
//
//go:embed pins.json
var pinsJSON []byte

type pinTable map[string]map[string]outcome

func loadPins() (pinTable, error) {
	var p pinTable
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// pinFor returns the pinned outcome for a workload and seed.
func (p pinTable) pinFor(workload string, seed int64) (outcome, bool) {
	o, ok := p[workload][strconv.FormatInt(seed, 10)]
	return o, ok
}

// gate compares each repetition's outcome with the first one and with the
// pins: the workload's own pin, and for the two engines run at the same
// scale, the other engine's pin (batch and stream must agree).
type gate struct {
	workload string
	seed     int64
	pins     pinTable
	first    *outcome
}

func (g *gate) check(o outcome) error {
	if g.first == nil {
		g.first = &o
	} else if o != *g.first {
		return fmt.Errorf("repetition outcome %+v differs from the first repetition's %+v", o, *g.first)
	}
	if pin, ok := g.pins.pinFor(g.workload, g.seed); ok && o != pin {
		return fmt.Errorf("outcome %+v differs from the pinned %+v", o, pin)
	}
	other := map[string]string{"study": "service", "service": "study"}[g.workload]
	if pin, ok := g.pins.pinFor(other, g.seed); ok {
		pin.RunDigest = o.RunDigest
		if o != pin {
			return fmt.Errorf("%s outcome %+v differs from the pinned %s outcome %+v", g.workload, o, other, pin)
		}
	}
	return nil
}

func (g *gate) pinned() bool {
	_, ok := g.pins.pinFor(g.workload, g.seed)
	return ok
}
