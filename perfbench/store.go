package main

import (
	"time"

	"doxmeter/internal/store"
)

// timedStore is a pass-through store.DeltaStore that times every call into
// the wrapped backend. It also measures, from outside the study, how long
// the study spends building a checkpoint: a cut is built after the day's
// commit-log entry is appended and before the snapshot or delta is saved,
// so the gap between those two calls is the build time.
//
// A study drives its store from one goroutine, so the tallies need no lock.
type timedStore struct {
	inner store.DeltaStore

	snapN, deltaN, appendN, loadN int
	snapBytes, deltaBytes         int64
	snapDur, deltaDur, appendDur  time.Duration
	loadDur, entriesDur           time.Duration

	buildN     int
	buildDur   time.Duration
	lastDayEnd time.Time // end of the latest day-entry append not yet followed by a save
}

func newTimedStore(inner store.DeltaStore) *timedStore { return &timedStore{inner: inner} }

// runDur is the store time a study spends inside Run: saves and appends.
func (t *timedStore) runDur() time.Duration { return t.snapDur + t.deltaDur + t.appendDur }

func (t *timedStore) noteBuild(start time.Time) {
	if !t.lastDayEnd.IsZero() {
		t.buildN++
		t.buildDur += start.Sub(t.lastDayEnd)
		t.lastDayEnd = time.Time{}
	}
}

func (t *timedStore) SaveSnapshot(snap *store.Snapshot) (int, error) {
	start := time.Now()
	t.noteBuild(start)
	n, err := t.inner.SaveSnapshot(snap)
	t.snapDur += time.Since(start)
	t.snapN++
	t.snapBytes += int64(n)
	return n, err
}

func (t *timedStore) SaveDelta(d *store.Delta) (int, error) {
	start := time.Now()
	t.noteBuild(start)
	n, err := t.inner.SaveDelta(d)
	t.deltaDur += time.Since(start)
	t.deltaN++
	t.deltaBytes += int64(n)
	return n, err
}

func (t *timedStore) AppendEntry(e store.Entry) error {
	start := time.Now()
	err := t.inner.AppendEntry(e)
	end := time.Now()
	t.appendDur += end.Sub(start)
	t.appendN++
	if e.Kind == store.KindDay {
		t.lastDayEnd = end
	}
	return err
}

func (t *timedStore) LoadSnapshot() (*store.Snapshot, error) {
	start := time.Now()
	snap, err := t.inner.LoadSnapshot()
	t.loadDur += time.Since(start)
	t.loadN++
	return snap, err
}

func (t *timedStore) LoadChain() (*store.Snapshot, []*store.Delta, error) {
	start := time.Now()
	snap, deltas, err := t.inner.LoadChain()
	t.loadDur += time.Since(start)
	t.loadN++
	return snap, deltas, err
}

func (t *timedStore) Entries() ([]store.Entry, error) {
	start := time.Now()
	es, err := t.inner.Entries()
	t.entriesDur += time.Since(start)
	return es, err
}

func (t *timedStore) Close() error { return t.inner.Close() }
